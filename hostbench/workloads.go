package main

import (
	"fmt"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/apps/lmbench"
	"repro/internal/apps/postmark"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// A workload is one closed batch run through the program's public entry
// points: its simulated clients are part of the simulation. Each runs
// the paper's native-vs-Virtual-Ghost comparison, as cmd/vgbench does.
// Why each one is in the benchmark is recorded in README.md.
type workload struct {
	name string
	// seeded reports whether --seed reaches the workload's inputs.
	// c10k has no seed input: its cohorts are assigned by connection
	// index, so its virtual results are pinned under every seed.
	seeded bool
	// agree are the fingerprint results that do not depend on the
	// machine configuration: every configuration must report the same
	// value under every seed (checkAgreement).
	agree []string
	// setup boots the systems of one iteration and seeds their files;
	// it is timed as setup_s. The returned batch is the measured phase.
	setup func(seed uint64) (*batch, error)
}

// batch is one iteration's measured phase.
type batch struct {
	// systems are the systems the benchmark booted: the traced run
	// wraps their kernels' syscall handlers, and their counters are read
	// after the run. Empty for c10k, whose systems are not reachable.
	systems []*repro.System
	run     func() (outcome, error)
}

// outcome is what one iteration's measured phase produced.
type outcome struct {
	attempted, failed int
	fp                fingerprint        // virtual results, checked against pins
	ledger            hw.Ledger          // virtual cycles of the measured phase, by tag
	counts            map[string]float64 // exact per-layer counts the harness can reach
}

var workloads = []workload{
	{name: "c10k", setup: setupC10K, agree: []string{
		"requests", "failures", "peak_conns", "idle_killed", "rejected_400",
		"vcycles.compute", "vcycles.crypt",
	}},
	{name: "bulk_http", seeded: true, setup: setupBulkHTTP, agree: []string{
		"bytes", "failures", "vcycles.compute", "vcycles.engine", "vcycles.net", "vcycles.trap",
	}},
	{name: "postmark", seeded: true, setup: setupPostmark, agree: []string{
		"creates", "deletes", "reads", "appends",
		"vcycles.compute", "vcycles.io", "vcycles.engine", "vcycles.tlb", "vcycles.trap",
	}},
	{name: "lmbench", seeded: true, setup: setupLMBench, agree: []string{
		"vcycles.compute", "vcycles.io", "vcycles.engine", "vcycles.sched", "vcycles.tlb", "vcycles.trap",
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverModes are the two configurations each workload compares.
var serverModes = []repro.Mode{repro.Native, repro.VirtualGhost}

func modeName(m repro.Mode) string {
	switch m {
	case repro.Native:
		return "native"
	case repro.VirtualGhost:
		return "vghost"
	case repro.Shadow:
		return "shadow"
	}
	return fmt.Sprint(m)
}

// boot starts one system whose hardware RNG (and so its TPM key and
// seeded file contents) comes from seed.
func boot(mode repro.Mode, seed uint64, clock *hw.Clock) (*repro.System, error) {
	cfg := hw.DefaultConfig()
	cfg.Seed = seed
	s, err := repro.NewSystemWithOptions(mode, repro.Options{Machine: cfg, SharedClock: clock})
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", modeName(mode), err)
	}
	return s, nil
}

// bootPair starts a server in mode and a native client on its clock,
// with their NICs linked, as the paper's network experiments do.
func bootPair(mode repro.Mode, seed uint64) (server, client *repro.System, err error) {
	if server, err = boot(mode, seed, nil); err != nil {
		return nil, nil, err
	}
	if client, err = boot(repro.Native, seed, server.Machine.Clock); err != nil {
		return nil, nil, err
	}
	hw.Connect(server.Machine.NIC, client.Machine.NIC)
	return server, client, nil
}

// seedFile writes size bytes from the machine's RNG at path.
func seedFile(s *repro.System, path string, size int) error {
	data := make([]byte, size)
	s.Machine.RNG.Fill(data)
	if !s.Kernel.WriteKernelFile(path, data) {
		return fmt.Errorf("seed %s: write failed", path)
	}
	if err := s.Kernel.FS.Sync(); err != nil {
		return fmt.Errorf("seed %s: %w", path, err)
	}
	return nil
}

// --- c10k --------------------------------------------------------------------

// c10kScale is the experiment at 10,000 connections, two requests each.
var c10kScale = experiments.Scale{C10KConns: 10000, C10KRequests: 2}

// c10kFileSizes mirror the experiment's response sizes.
var c10kFileSizes = []int{200, 4 << 10, 24 << 10}

// c10kCohorts counts the adversary connections. The experiment assigns
// cohorts by connection index (experiments/c10k.go): every 50th from 7
// is a slowloris, every 100th from 13 sends an oversized header, and
// the rest make C10KRequests requests each.
func c10kCohorts(conns int) (slowloris, oversize, regular int) {
	for i := 0; i < conns; i++ {
		switch {
		case i%50 == 7:
			slowloris++
		case i%100 == 13:
			oversize++
		}
	}
	return slowloris, oversize, conns - slowloris - oversize
}

func setupC10K(uint64) (*batch, error) {
	// experiments.C10K boots its own machines, so set-up is a separate
	// boot of the same configurations with the same files.
	for _, mode := range serverModes {
		server, _, err := bootPair(mode, hw.DefaultConfig().Seed)
		if err != nil {
			return nil, err
		}
		for i, size := range c10kFileSizes {
			if err := seedFile(server, fmt.Sprintf("/f%d.bin", i), size); err != nil {
				return nil, err
			}
		}
	}
	return &batch{run: runC10K}, nil
}

func runC10K() (outcome, error) {
	cmp := experiments.C10K(c10kScale)
	slow, over, regular := c10kCohorts(c10kScale.C10KConns)
	out := outcome{fp: fingerprint{}, counts: map[string]float64{}}
	for _, r := range []struct {
		name string
		res  experiments.C10KResult
	}{{"native", cmp.Native}, {"vghost", cmp.VG}} {
		res := r.res
		switch {
		case res.PeakConns != c10kScale.C10KConns:
			return out, fmt.Errorf("c10k %s: peak %d conns, want %d", r.name, res.PeakConns, c10kScale.C10KConns)
		case res.IdleKilled != slow:
			return out, fmt.Errorf("c10k %s: %d slowloris conns idle-killed, want %d", r.name, res.IdleKilled, slow)
		case res.Rejected400 != over:
			return out, fmt.Errorf("c10k %s: %d oversized conns refused, want %d", r.name, res.Rejected400, over)
		case res.Requests+res.Failures != regular*c10kScale.C10KRequests:
			return out, fmt.Errorf("c10k %s: %d requests + %d failures, want %d attempts",
				r.name, res.Requests, res.Failures, regular*c10kScale.C10KRequests)
		}
		out.attempted += res.Requests + res.Failures
		out.failed += res.Failures
		out.ledger = out.ledger.Add(res.Ledger)
		p := r.name + "."
		out.fp.addLedger(r.name, res.Ledger)
		out.fp[p+"requests"] = float64(res.Requests)
		out.fp[p+"failures"] = float64(res.Failures)
		out.fp[p+"peak_conns"] = float64(res.PeakConns)
		out.fp[p+"idle_killed"] = float64(res.IdleKilled)
		out.fp[p+"rejected_400"] = float64(res.Rejected400)
		out.fp[p+"virtual_s"] = res.VirtualSecs
		out.fp[p+"p50_us"] = res.P50us
		out.fp[p+"p95_us"] = res.P95us
		out.fp[p+"p99_us"] = res.P99us
		addNetCounts(out.counts, res.NetStats)
	}
	return out, nil
}

// --- bulk_http ---------------------------------------------------------------

const (
	bulkFileSize = 1 << 20
	bulkRequests = 96 // per configuration, one at a time
)

func setupBulkHTTP(seed uint64) (*batch, error) {
	b := &batch{}
	type pair struct{ server, client *repro.System }
	var pairs []pair
	for _, mode := range serverModes {
		server, client, err := bootPair(mode, seed)
		if err != nil {
			return nil, err
		}
		if err := seedFile(server, "/pub.bin", bulkFileSize); err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{server, client})
		b.systems = append(b.systems, server, client)
	}
	b.run = func() (outcome, error) {
		out := outcome{fp: fingerprint{}}
		for _, pr := range pairs {
			name := modeName(pr.server.Mode)
			clock := pr.server.Machine.Clock
			pre := clock.Ledger()
			if _, err := pr.server.Kernel.Spawn("thttpd", httpd.ServerMain); err != nil {
				return out, fmt.Errorf("bulk_http %s: %w", name, err)
			}
			var res httpd.BenchResult
			done := false
			if _, err := pr.client.Kernel.Spawn("ab", func(p *kernel.Proc) {
				httpd.ClientMain(p, "/pub.bin", bulkRequests, &res)
				httpd.StopServer(p)
				done = true
			}); err != nil {
				return out, fmt.Errorf("bulk_http %s: %w", name, err)
			}
			world := &kernel.World{Kernels: []*kernel.Kernel{pr.server.Kernel, pr.client.Kernel}}
			if !world.Run(func() bool { return done }) {
				return out, fmt.Errorf("bulk_http %s: deadlocked", name)
			}
			if want := uint64(bulkRequests-res.Failures) * bulkFileSize; res.Bytes != want {
				return out, fmt.Errorf("bulk_http %s: %d bytes received, want %d", name, res.Bytes, want)
			}
			ledger := clock.Ledger().Sub(pre)
			out.attempted += bulkRequests
			out.failed += res.Failures
			out.ledger = out.ledger.Add(ledger)
			out.fp.addLedger(name, ledger)
			out.fp[name+".failures"] = float64(res.Failures)
			out.fp[name+".bytes"] = float64(res.Bytes)
			out.fp[name+".virtual_s"] = res.Seconds
			out.fp[name+".kb_per_s"] = res.KBPerSec
		}
		return out, nil
	}
	return b, nil
}

// --- postmark ----------------------------------------------------------------

// Postmark's file count is a random walk, and a transaction's cost grows
// with the file count: one 40,000-transaction run lands anywhere from
// about 330 to 610 files on average depending on its seed. Each
// configuration therefore runs several shorter Postmarks on independent
// seeds drawn from --seed, whose average walk varies by about 2%.
const (
	postmarkRuns = 8    // per configuration
	postmarkTxns = 5000 // per run
)

// postmarkSeed derives run i's Postmark seed from the workload seed
// (splitmix64, so neighbouring seeds give unrelated walks).
func postmarkSeed(seed uint64, i int) uint64 {
	z := seed*postmarkRuns + uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func setupPostmark(seed uint64) (*batch, error) {
	b := &batch{}
	for _, mode := range serverModes {
		s, err := boot(mode, seed, nil)
		if err != nil {
			return nil, err
		}
		b.systems = append(b.systems, s)
	}
	b.run = func() (outcome, error) {
		out := outcome{fp: fingerprint{}}
		for _, s := range b.systems {
			name := modeName(s.Mode)
			clock := s.Machine.Clock
			pre := clock.Ledger()
			var total postmark.Result
			for i := 0; i < postmarkRuns; i++ {
				cfg := postmark.PaperConfig(postmarkTxns)
				cfg.Seed = postmarkSeed(seed, i)
				res := postmark.Run(s.Kernel, cfg)
				if n := res.Creates + res.Deletes + res.Reads + res.Appends; n != cfg.Transactions {
					return out, fmt.Errorf("postmark %s run %d: op counts sum to %d, want %d transactions", name, i, n, cfg.Transactions)
				}
				total.Transactions += res.Transactions
				total.Seconds += res.Seconds
				total.Creates += res.Creates
				total.Deletes += res.Deletes
				total.Reads += res.Reads
				total.Appends += res.Appends
			}
			ledger := clock.Ledger().Sub(pre)
			out.attempted += total.Transactions
			out.ledger = out.ledger.Add(ledger)
			out.fp.addLedger(name, ledger)
			out.fp[name+".virtual_s"] = total.Seconds
			out.fp[name+".creates"] = float64(total.Creates)
			out.fp[name+".deletes"] = float64(total.Deletes)
			out.fp[name+".reads"] = float64(total.Reads)
			out.fp[name+".appends"] = float64(total.Appends)
		}
		return out, nil
	}
	return b, nil
}

// --- lmbench -----------------------------------------------------------------

// lmbenchScale plays the part of experiments.Scale.LMBenchIters: one
// number sizes every operation, so one iteration lasts about a second
// of host time and keeps Table 2's mix.
const lmbenchScale = 18000

// lmbenchOps are the Table 2 operations that exercise the HALs and the
// MMU, each run for the iteration count experiments.Table2 gives it at
// scale n.
var lmbenchOps = []struct {
	name  string
	iters func(n int) int
	run   func(k *kernel.Kernel, iters int) float64
}{
	{"mmap", func(n int) int { return n }, lmbench.Mmap},
	{"page_fault", func(n int) int { return min(n, 200) }, lmbench.PageFault},
	{"sig_install", func(n int) int { return n * 2 }, lmbench.SigInstall},
	{"sig_deliver", func(n int) int { return n }, lmbench.SigDeliver},
	{"fork_exit", func(n int) int { return max(n/10, 4) }, lmbench.ForkExit},
	{"fork_exec", func(n int) int { return max(n/10, 4) }, lmbench.ForkExec},
	{"select", func(n int) int { return n }, func(k *kernel.Kernel, n int) float64 { return lmbench.Select(k, 64, n) }},
}

func setupLMBench(seed uint64) (*batch, error) {
	b := &batch{}
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost, repro.Shadow} {
		s, err := boot(mode, seed, nil)
		if err != nil {
			return nil, err
		}
		b.systems = append(b.systems, s)
	}
	b.run = func() (outcome, error) {
		out := outcome{fp: fingerprint{}}
		for _, s := range b.systems {
			name := modeName(s.Mode)
			clock := s.Machine.Clock
			pre := clock.Ledger()
			for _, op := range lmbenchOps {
				iters := op.iters(lmbenchScale)
				us := op.run(s.Kernel, iters)
				if !(us > 0) {
					return out, fmt.Errorf("lmbench %s %s: %v µs per op", name, op.name, us)
				}
				out.attempted += iters
				out.fp[name+"."+op.name+"_us"] = us
			}
			ledger := clock.Ledger().Sub(pre)
			out.ledger = out.ledger.Add(ledger)
			out.fp.addLedger(name, ledger)
		}
		return out, nil
	}
	return b, nil
}

// --- counters ----------------------------------------------------------------

// systemCounts reads the exact counters the program exposes on the
// systems a batch booted (cumulative since boot, set-up included).
func systemCounts(systems []*repro.System) map[string]float64 {
	c := map[string]float64{}
	for _, name := range []string{
		"kernel.syscalls", "kernel.ctx_switches", "kernel.page_faults", "kernel.forks",
		"hw.nic.sent", "hw.nic.received", "hw.nic.dropped", "hw.disk.reads", "hw.disk.writes",
		"kernel.fs.writebacks", "vir.sites_fused", "vir.masks_elided", "vir.cfi_elided",
	} {
		c[name] = 0 // present even when no system is reachable (c10k)
	}
	addNetCounts(c, kernel.NetStats{})
	var hits, misses, icHits, icMisses float64
	for _, s := range systems {
		k := s.Kernel
		st := k.Stats()
		c["kernel.syscalls"] += float64(st.Syscalls)
		c["kernel.ctx_switches"] += float64(st.ContextSwitch)
		c["kernel.page_faults"] += float64(st.PageFaults)
		c["kernel.forks"] += float64(st.ForksCreated)
		addNetCounts(c, k.Net.Stats())
		sent, recv, dropped := s.Machine.NIC.Stats()
		c["hw.nic.sent"] += float64(sent)
		c["hw.nic.received"] += float64(recv)
		c["hw.nic.dropped"] += float64(dropped)
		reads, writes := s.Machine.Disk.Stats()
		c["hw.disk.reads"] += float64(reads)
		c["hw.disk.writes"] += float64(writes)
		h, m, wb := k.FS.Cache().Stats()
		hits += float64(h)
		misses += float64(m)
		c["kernel.fs.writebacks"] += float64(wb)
		fs := k.FusionStats()
		icHits += float64(fs.ICHits)
		icMisses += float64(fs.ICMisses)
		c["vir.sites_fused"] += float64(fs.SitesFused)
		es := k.ElisionStats()
		c["vir.masks_elided"] += float64(es.MasksElided)
		c["vir.cfi_elided"] += float64(es.CFIElided)
	}
	c["kernel.fs.bufcache_lookups"] = hits + misses
	c["kernel.fs.bufcache_hit_ratio"] = ratio(hits, hits+misses)
	c["vir.ic_lookups"] = icHits + icMisses
	c["vir.ic_hit_ratio"] = ratio(icHits, icHits+icMisses)
	return c
}

func addNetCounts(c map[string]float64, ns kernel.NetStats) {
	c["kernel.net.timer_fires"] += float64(ns.TimerFires)
	c["kernel.net.timeout_kills"] += float64(ns.TimeoutKills)
	c["kernel.net.syn_drops"] += float64(ns.SynDrops)
	c["kernel.net.late_drops"] += float64(ns.LateDataDrops + ns.LateFinDrops)
}

// ratio is a/b, or 0 for an empty base (the base is reported beside it).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
