package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro"
	"repro/internal/apps/lmbench"
	"repro/internal/kernel"
	"repro/internal/vir"
)

// TestGoldenCycles pins the virtual-clock behaviour of the Table 2
// microbenchmarks (and of direct module execution) to checked-in
// values, making "experiment metrics bit-identical across commits" an
// executable assertion instead of a manual diff. Any change that moves
// the virtual clock — a new cost, a reordered charge, an execution-
// engine bug — fails this test with the exact rows that moved.
//
// After an *intentional* cost-model change, regenerate with:
//
//	go test ./internal/experiments -run TestGoldenCycles -update
//
// and justify the new numbers in the commit message.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_cycles.json")

// goldenEntry is one pinned measurement: the benchmark's reported
// value (virtual µs) and the machine's cumulative cycle counter after
// boot + run, which pins every charge on the path, not just the
// benchmark window.
type goldenEntry struct {
	Value  float64 `json:"value"`
	Cycles uint64  `json:"cycles"`
}

const goldenPath = "testdata/golden_cycles.json"

// goldenScale is deliberately fixed and small: the point is exact
// cycle equality, not statistical quality.
func goldenScale() Scale {
	return Scale{LMBenchIters: 20, FileCount: 20, HTTPRequests: 2, SSHRuns: 1, PostmarkTxns: 100}
}

func collectGolden() map[string]goldenEntry {
	sc := goldenScale()
	iters := sc.LMBenchIters
	benches := []struct {
		name string
		run  func(k *kernel.Kernel) float64
	}{
		{"null syscall", func(k *kernel.Kernel) float64 { return lmbench.NullSyscall(k, iters*4) }},
		{"open/close", func(k *kernel.Kernel) float64 { return lmbench.OpenClose(k, iters) }},
		{"mmap", func(k *kernel.Kernel) float64 { return lmbench.Mmap(k, iters) }},
		{"page fault", func(k *kernel.Kernel) float64 { return lmbench.PageFault(k, iters) }},
		{"signal handler install", func(k *kernel.Kernel) float64 { return lmbench.SigInstall(k, iters*2) }},
		{"signal handler delivery", func(k *kernel.Kernel) float64 { return lmbench.SigDeliver(k, iters) }},
		{"fork + exit", func(k *kernel.Kernel) float64 { return lmbench.ForkExit(k, 4) }},
		{"fork + exec", func(k *kernel.Kernel) float64 { return lmbench.ForkExec(k, 4) }},
		{"select", func(k *kernel.Kernel) float64 { return lmbench.Select(k, 64, iters) }},
	}
	modes := []struct {
		name string
		mode repro.Mode
	}{
		{"native", repro.Native},
		{"vghost", repro.VirtualGhost},
		{"shadow", repro.Shadow},
	}
	got := make(map[string]goldenEntry)
	for _, m := range modes {
		for _, b := range benches {
			s := newSystem(m.mode)
			v := b.run(s.Kernel)
			got[fmt.Sprintf("t2/%s/%s", m.name, b.name)] = goldenEntry{
				Value:  v,
				Cycles: s.Machine.Clock.Cycles(),
			}
		}
	}
	// Direct module execution rows: these run entirely inside the IR
	// execution engine, so they pin the engine's cost accounting with
	// no syscall machinery around it.
	for _, m := range modes[:2] {
		s := newSystem(m.mode)
		k := s.Kernel
		const buf = 0xffffff8000200000
		c0 := s.Machine.Clock.Cycles()
		if err := k.KMemset(buf, 0x5a, 256); err != nil {
			panic(err)
		}
		got[fmt.Sprintf("mod/%s/kmemset256", m.name)] = goldenEntry{
			Cycles: s.Machine.Clock.Cycles() - c0,
		}
		c0 = s.Machine.Clock.Cycles()
		sum, err := k.KChecksum(buf, 256)
		if err != nil {
			panic(err)
		}
		got[fmt.Sprintf("mod/%s/kchecksum256", m.name)] = goldenEntry{
			Value:  float64(sum),
			Cycles: s.Machine.Clock.Cycles() - c0,
		}
	}
	for name, e := range demoRows(kernel.EngineLinked) {
		got[name] = e
	}
	return got
}

// demoIters is the fixed loop count of the demo-module rows.
const demoIters = 64

// demoRuns lists the demo-module routines pinned by the golden file:
// elidedemo's hotstore (three masks of one pointer per iteration) and
// twice (two indirect calls through one register), and fusedemo's
// hotloop (a counted loop with a mask+store/load body and a call tail)
// and dispatch (a monomorphic indirect-call loop). Each runs on a fresh
// Virtual Ghost system, the configuration these modules were written
// for.
var demoRuns = []struct {
	file, fn string
	args     []uint64
}{
	{"elidedemo.vir", "hotstore", []uint64{0xffffff8000001000, demoIters}},
	{"elidedemo.vir", "twice", []uint64{1}},
	{"fusedemo.vir", "hotloop", []uint64{0xffffff8000002000, demoIters}},
	{"fusedemo.vir", "dispatch", []uint64{0, demoIters}},
}

// demoRows runs every demo routine under the given engine and returns
// its rows: the routine's return value and the cycles its call charged.
func demoRows(engine kernel.EngineKind) map[string]goldenEntry {
	got := make(map[string]goldenEntry)
	for _, d := range demoRuns {
		src, err := os.ReadFile(filepath.Join("testdata", d.file))
		if err != nil {
			panic(err)
		}
		m, err := vir.ParseModule(string(src))
		if err != nil {
			panic(err)
		}
		s := newSystem(repro.VirtualGhost)
		k := s.Kernel
		k.SetEngine(engine)
		mod, err := k.LoadModule(m)
		if err != nil {
			panic(err)
		}
		c0 := s.Machine.Clock.Cycles()
		ret, err := k.RunModuleFunc(mod, d.fn, d.args...)
		if err != nil {
			panic(err)
		}
		got["demo/vghost/"+d.fn] = goldenEntry{Value: float64(ret), Cycles: s.Machine.Clock.Cycles() - c0}
	}
	return got
}

func TestGoldenCycles(t *testing.T) {
	got := collectGolden()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}

	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			t.Errorf("%s: missing from current run", n)
			continue
		}
		if g != want[n] {
			t.Errorf("%s: virtual clock moved:\n  golden:  value=%v cycles=%d\n  current: value=%v cycles=%d",
				n, want[n].Value, want[n].Cycles, g.Value, g.Cycles)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: not in golden file (run with -update after review)", n)
		}
	}
	// The reference interpreter must charge the demo routines exactly
	// what the linked engine does.
	for n, g := range demoRows(kernel.EngineReference) {
		if g != want[n] {
			t.Errorf("%s: reference engine differs from golden:\n  golden:    value=%v cycles=%d\n  reference: value=%v cycles=%d",
				n, want[n].Value, want[n].Cycles, g.Value, g.Cycles)
		}
	}
}
