package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/vgcrypt"
)

// This file is the SMP scaling experiment: the ghost-webserver workload
// run on machines with growing CPU counts. Each worker is a content-
// cache server: it loads the site body into ghost memory once, then per
// request reads the cached body, seals it with the application key
// (AES-GCM, deterministic per-request nonces), and writes the sealed
// response back to ghost memory — the OS never sees request plaintext.
//
// Virtual parallelism is modeled by per-CPU busy-cycle attribution
// (internal/kernel/epoch.go): the makespan is the busiest CPU's virtual
// time, so spreading the same work over more CPUs raises throughput.
// CPUPoint.Fingerprint digests every deterministic output so tests can
// pin it.

// CPUCounts is the machine-size sweep.
var CPUCounts = []int{1, 2, 4, 8}

// scalingWorkers is the number of server worker processes; at the top
// of the sweep each CPU runs exactly one worker.
const scalingWorkers = 8

// scalingResponse is the response-body size each request seals. The
// AES-GCM work on this much data is the dominant *host* cost of a
// request.
const scalingResponse = 32 * 1024

// CPUPoint is one machine size's result.
type CPUPoint struct {
	NumCPUs     int
	Requests    int       // total requests served
	MakespanSec float64   // busiest CPU's virtual seconds
	ReqPerSec   float64   // Requests / MakespanSec
	Speedup     float64   // vs the 1-CPU point (virtual)
	Utilization []float64 // per-CPU busy / makespan

	// HostSec is the host wall-clock the run took: a simulator-
	// efficiency number that varies run to run and is never part of
	// the deterministic surface.
	HostSec float64

	// Fingerprint digests every deterministic virtual output of the run
	// (cycle total, machine and per-CPU ledgers, per-CPU busy counters,
	// kernel stats, IPI/shootdown counts, request count);
	// testdata/golden_smp.json pins it.
	Fingerprint string
}

// CPUScaling measures ghost-webserver throughput on Virtual Ghost at
// each CPU count in counts (nil = CPUCounts).
func CPUScaling(sc Scale, counts []int) []CPUPoint {
	if counts == nil {
		counts = CPUCounts
	}
	pts := make([]CPUPoint, 0, len(counts))
	for _, n := range counts {
		pts = append(pts, ghostServerThroughput(n, sc.HTTPRequests))
	}
	for i := range pts {
		if pts[0].ReqPerSec > 0 {
			pts[i].Speedup = pts[i].ReqPerSec / pts[0].ReqPerSec
		}
	}
	return pts
}

// ghostServerThroughput boots an n-CPU Virtual Ghost system, runs
// scalingWorkers request-serving processes, and derives throughput from
// the makespan.
func ghostServerThroughput(ncpus, reqsPerWorker int) CPUPoint {
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = ncpus
	sys, err := repro.NewSystemWithOptions(repro.VirtualGhost, repro.Options{Machine: cfg})
	if err != nil {
		panic(fmt.Sprintf("experiments: boot %d-cpu system: %v", ncpus, err))
	}
	k := sys.Kernel
	seedFile(k, "/site.bin", scalingResponse)
	// One application key for the server, installed through the trusted
	// loader so sva.getKey works; per-request nonce counters embed the
	// worker id, so one key across workers never repeats a nonce.
	appKey := make([]byte, 32)
	sys.Machine.RNG.Fill(appKey)
	for w := 0; w < scalingWorkers; w++ {
		worker := w
		path := fmt.Sprintf("/bin/httpd%d", w)
		if _, err := k.InstallTrustedProgram(path, appKey, func(p *kernel.Proc) {
			l, err := libc.NewGhosting(p)
			if err != nil {
				panic(err)
			}
			content, err := l.Malloc(scalingResponse)
			if err != nil {
				panic(err)
			}
			sealed, err := l.Malloc(scalingResponse + vgcrypt.Overhead())
			if err != nil {
				panic(err)
			}
			fd, err := l.Open("/site.bin", kernel.ORdOnly)
			if err != nil {
				panic(err)
			}
			// Fill the ghost content cache once; the request loop then
			// serves purely from ghost memory.
			if _, err := l.Read(fd, content, scalingResponse); err != nil {
				panic(err)
			}
			key := l.Key()
			for r := 0; r < reqsPerWorker; r++ {
				// One "request": read the cached body from ghost memory,
				// seal it under the application key with a deterministic
				// per-request nonce (a random nonce would draw from the
				// shared RNG mid-request and is unnecessary — the counter
				// never repeats per key), charge the crypto cycles, store
				// the sealed response in ghost memory, and yield at the
				// request boundary.
				body := l.ReadGhost(content, scalingResponse)
				blob, err := vgcrypt.SealWithKeyAndCounter(key,
					uint64(worker)<<32|uint64(r), body)
				if err != nil {
					panic(err)
				}
				p.ComputeCrypt(uint64(len(body)+len(blob)) * hw.CostCryptPerByte)
				l.WriteGhost(sealed, blob)
				p.Syscall(kernel.SysYield)
			}
		}); err != nil {
			panic(err)
		}
		if _, err := k.SpawnProgram(path); err != nil {
			panic(err)
		}
	}
	hostStart := time.Now()
	k.RunUntilIdle()
	hostSec := time.Since(hostStart).Seconds()
	busy := k.CPUBusy()
	var makespan uint64
	for _, b := range busy {
		if b > makespan {
			makespan = b
		}
	}
	pt := CPUPoint{
		NumCPUs:     ncpus,
		Requests:    scalingWorkers * reqsPerWorker,
		MakespanSec: hw.Seconds(makespan),
		HostSec:     hostSec,
		Fingerprint: scalingFingerprint(sys, scalingWorkers*reqsPerWorker),
	}
	if pt.MakespanSec > 0 {
		pt.ReqPerSec = float64(pt.Requests) / pt.MakespanSec
	}
	for _, b := range busy {
		pt.Utilization = append(pt.Utilization, float64(b)/float64(makespan))
	}
	return pt
}

// scalingFingerprint digests the deterministic virtual outputs of a
// finished run into a comparable string.
func scalingFingerprint(sys *repro.System, requests int) string {
	k, m := sys.Kernel, sys.Machine
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests=%d cycles=%d\n", requests, m.Clock.Cycles())
	fmt.Fprintf(&sb, "ledger=%v\n", m.Clock.Ledger())
	for i := 0; i < k.NumCPUs(); i++ {
		fmt.Fprintf(&sb, "cpu%d=%v\n", i, m.Clock.CPULedger(i))
	}
	fmt.Fprintf(&sb, "busy=%v\n", k.CPUBusy())
	fmt.Fprintf(&sb, "stats=%+v\n", k.Stats())
	sent, delivered, shootdowns := m.IPICounts()
	fmt.Fprintf(&sb, "ipis=%d/%d shootdowns=%d\n", sent, delivered, shootdowns)
	return sb.String()
}

// FormatCPUScaling renders the sweep.
func FormatCPUScaling(pts []CPUPoint) string {
	var sb strings.Builder
	sb.WriteString("CPU scaling: ghost webserver (content cache + AES-GCM sealing) on Virtual Ghost\n")
	fmt.Fprintf(&sb, "%-6s %9s %12s %12s %9s %10s %s\n",
		"CPUs", "Requests", "Makespan s", "Req/s", "Speedup", "Host s", "Per-CPU utilization")
	for _, p := range pts {
		utils := make([]string, len(p.Utilization))
		for i, u := range p.Utilization {
			utils[i] = fmt.Sprintf("%.2f", u)
		}
		fmt.Fprintf(&sb, "%-6d %9d %12.6f %12.0f %8.2fx %10.4f %s\n",
			p.NumCPUs, p.Requests, p.MakespanSec, p.ReqPerSec, p.Speedup,
			p.HostSec, strings.Join(utils, " "))
	}
	return sb.String()
}

// ExportCPUScaling writes cpu_scaling.csv.
func ExportCPUScaling(dir string, pts []CPUPoint) error {
	out := make([][]string, 0, len(pts))
	for _, p := range pts {
		minU, maxU := 1.0, 0.0
		for _, u := range p.Utilization {
			if u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		out = append(out, []string{
			fmt.Sprint(p.NumCPUs), fmt.Sprint(p.Requests),
			f3(p.MakespanSec), f3(p.ReqPerSec), f3(p.Speedup),
			f3(minU), f3(maxU),
			f3(p.HostSec),
		})
	}
	return WriteCSV(dir, "cpu_scaling",
		[]string{"num_cpus", "requests", "makespan_s", "req_per_s", "speedup",
			"min_util", "max_util", "host_s"},
		out)
}
