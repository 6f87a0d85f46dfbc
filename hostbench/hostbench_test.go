package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestLayerMapCoversProgram fails when a package of the program or a
// kernel source file has no layer, or when the map names one that no
// longer exists, so profile time cannot fall silently into a bucket.
func TestLayerMapCoversProgram(t *testing.T) {
	seen := map[string]bool{"main": true}
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel("..", path)
		rel = filepath.ToSlash(rel)
		if rel != "." && rel != "internal" && !strings.HasPrefix(rel, "internal/") {
			return filepath.SkipDir // cmd, examples and this benchmark are not program layers
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !hasGoSources(t, path) {
			return nil
		}
		pkg := "repro"
		if rel != "." {
			pkg += "/" + rel
		}
		seen[pkg] = true
		if _, ok := packageLayer[pkg]; !ok {
			t.Errorf("package %s has no layer in packageLayer", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range packageLayer {
		if !seen[pkg] {
			t.Errorf("packageLayer names %s, which has no sources", pkg)
		}
	}

	files, err := filepath.Glob("../internal/kernel/*.go")
	if err != nil {
		t.Fatal(err)
	}
	kernelFiles := map[string]bool{}
	for _, f := range files {
		base := filepath.Base(f)
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		kernelFiles[base] = true
		if _, ok := kernelFileLayer[base]; !ok {
			t.Errorf("kernel file %s has no layer in kernelFileLayer", base)
		}
	}
	for base, layer := range kernelFileLayer {
		if !kernelFiles[base] {
			t.Errorf("kernelFileLayer names %s, which does not exist", base)
		}
		if !knownLayer(layer) {
			t.Errorf("kernel file %s maps to unreported layer %q", base, layer)
		}
	}
	for pkg, layer := range packageLayer {
		if !knownLayer(layer) {
			t.Errorf("package %s maps to unreported layer %q", pkg, layer)
		}
	}
}

func hasGoSources(t *testing.T, dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

func knownLayer(l string) bool {
	for _, x := range layers {
		if x == l {
			return true
		}
	}
	return false
}

func TestAttributeSyntheticStacks(t *testing.T) {
	k := func(fn, file string) frame {
		return frame{"repro/internal/kernel." + fn, "/src/internal/kernel/" + file}
	}
	rt := func(fn string) frame { return frame{"runtime." + fn, "/go/src/runtime/x.go"} }
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"kernel.net leaf", []frame{k("(*NetStack).handlePacket", "net.go"), k("(*Kernel).trapEntry", "kernel.go")}, "kernel.net"},
		{"timer wheel", []frame{k("(*timerWheel).advance", "timerwheel.go")}, "kernel.net"},
		{"kernel.fs", []frame{k("(*FS).dirScan", "ufs.go")}, "kernel.fs"},
		{"kernel.sched", []frame{k("(*Kernel).pickNextOn", "sched.go")}, "kernel.sched"},
		{"rest of kernel", []frame{k("sysRead", "sysfile.go")}, "kernel"},
		{"malloc charged to caller", []frame{rt("mallocgc"), rt("makeslice"), k("sysRead", "sysfile.go"), k("(*Kernel).trapEntry", "kernel.go")}, "kernel"},
		{"memmove charged to caller", []frame{rt("memmove"), {"repro/internal/hw.(*CPU).CopyFromVirt", "/src/internal/hw/cpu.go"}}, "hw"},
		{"memclr charged past runtime", []frame{rt("memclrNoHeapPointers"), rt("mallocgc"), rt("growslice"), {"repro/internal/apps/httpd.serveFile", "/src/internal/apps/httpd/httpd.go"}}, "apps"},
		{"gc worker", []frame{rt("scanobject"), rt("gcDrain"), rt("gcBgMarkWorker")}, layerGC},
		{"gc assist inside malloc", []frame{rt("scanobject"), rt("gcAssistAlloc1"), rt("gcAssistAlloc"), rt("mallocgc"), k("sysRead", "sysfile.go")}, layerGC},
		{"profiler gc marker", []frame{rt("_GC")}, layerGC},
		{"channel handoff is runtime", []frame{rt("chansend1"), k("(*Proc).enterKernel", "proc.go")}, layerRuntime},
		{"scheduler only", []frame{rt("findRunnable"), rt("schedule"), rt("mcall")}, layerRuntime},
		{"runtime lock via sync", []frame{rt("lock2"), {"sync.(*Mutex).lockSlow", "/go/src/sync/mutex.go"}, k("(*Kernel).Console", "kernel.go")}, layerRuntime},
		{"stdlib charged to caller", []frame{{"crypto/aes.encryptBlockAsm", "/go/src/crypto/aes/asm.s"}, {"crypto/cipher.(*gcm).Seal", "/go/src/crypto/cipher/gcm.go"}, {"repro/internal/vgcrypt.Seal", "/src/internal/vgcrypt/vgcrypt.go"}}, "vgcrypt"},
		{"generic instantiation", []frame{{"repro/internal/compiler/check.Run[go.shape.struct { a/b.c }]", "/src/internal/compiler/check/dataflow.go"}}, "compiler"},
		{"benchmark frame", []frame{{"main.(*spanRecorder).start", "/src/hostbench/trace.go"}}, "bench"},
		{"unknown program package", []frame{{"repro/internal/newpkg.F", "/src/internal/newpkg/f.go"}, k("sysRead", "sysfile.go")}, layerUnattributed},
		{"unknown kernel file", []frame{k("newThing", "newfile.go")}, layerUnattributed},
		{"stdlib only", []frame{{"sort.Slice", "/go/src/sort/slice.go"}}, layerUnattributed},
		{"empty", nil, layerUnattributed},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSymbolPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/kernel.(*NetStack).handlePacket": "repro/internal/kernel",
		"repro/internal/kernel.sysRead.func1":            "repro/internal/kernel",
		"repro.NewSystemWithOptions":                     "repro",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "internal/runtime/maps",
		"main.main": "main",
		"repro/internal/compiler/check.Run[go.shape.*uint8]": "repro/internal/compiler/check",
	} {
		if got := symbolPackage(sym); got != want {
			t.Errorf("symbolPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.50, 50, true},
		{100, 0.99, 99, false}, // one sample beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true}, // exactly ten beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false}, // nine beyond
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
}

func TestFailRatioHasABase(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
		wantErr           bool
	}{
		{0, 100, 0, false},
		{3, 200, 0.015, false},
		{7, 7, 1, false},
		{0, 0, 0, true},  // no base
		{5, 3, 0, true},  // more failures than attempts
		{-1, 3, 0, true}, // negative count
	} {
		got, err := failRatio(c.failed, c.attempted)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("failRatio(%d, %d) = %v, %v; want %v, error %v", c.failed, c.attempted, got, err, c.want, c.wantErr)
		}
	}
	recs := []iterRecord{{Attempted: 100, Failed: 1, WallS: 1}, {Attempted: 100, Failed: 0, WallS: 1}}
	res, err := endToEnd(recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 200 || res.Failed != 1 || res.Metrics["success_ratio"].Value != 0.995 {
		t.Errorf("endToEnd: attempted %d failed %d success %v; want 200, 1, 0.995",
			res.Attempted, res.Failed, res.Metrics["success_ratio"].Value)
	}
}

func TestPerturbedFingerprintFails(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		pinned, ok := pins.Workloads[w.name]
		if !ok || len(pinned) == 0 {
			t.Fatalf("pins.json has no fingerprint for %s", w.name)
		}
		same := fingerprint{}
		for k, v := range pinned {
			same[k] = v
		}
		if err := checkFingerprint(pins, w, pins.Seed, same); err != nil {
			t.Errorf("%s: unchanged fingerprint rejected: %v", w.name, err)
		}
		key := w.name // any key: perturb the alphabetically first
		for k := range same {
			if key == w.name || k < key {
				key = k
			}
		}
		perturbed := fingerprint{}
		for k, v := range same {
			perturbed[k] = v
		}
		perturbed[key] = math.Nextafter(perturbed[key], math.Inf(1))
		if err := checkFingerprint(pins, w, pins.Seed, perturbed); err == nil {
			t.Errorf("%s: fingerprint with %s perturbed by one ulp accepted", w.name, key)
		}
		delete(perturbed, key)
		if err := checkFingerprint(pins, w, pins.Seed, perturbed); err == nil {
			t.Errorf("%s: fingerprint missing %s accepted", w.name, key)
		}
		// Other seeds are checked by invariants, except where the seed
		// does not reach the inputs.
		if err := checkFingerprint(pins, w, pins.Seed+1, same); err != nil {
			t.Errorf("%s: pinned fingerprint rejected under another seed: %v", w.name, err)
		}
		cycles := fingerprint{}
		for k, v := range same {
			cycles[k] = v
		}
		cycles["native.cycles"]++
		err := checkFingerprint(pins, w, pins.Seed+1, cycles)
		if w.seeded && err != nil {
			t.Errorf("%s: pin applied under another seed: %v", w.name, err)
		}
		if !w.seeded && err == nil {
			t.Errorf("%s: takes no seed but its pin was skipped under another seed", w.name)
		}
		// Under any seed, the configurations must agree on the results
		// that do not depend on the configuration.
		if len(w.agree) == 0 {
			t.Errorf("%s: no configuration-independent results are checked", w.name)
		}
		for _, key := range w.agree {
			split := fingerprint{}
			for k, v := range same {
				split[k] = v
			}
			split["vghost."+key]++
			if err := checkFingerprint(pins, w, pins.Seed+1, split); err == nil {
				t.Errorf("%s: configurations disagreeing on %s accepted", w.name, key)
			}
		}
		if err := checkFingerprint(pins, w, pins.Seed+1, fingerprint{}); err == nil {
			t.Errorf("%s: empty fingerprint accepted under another seed", w.name)
		}
	}
	// An iteration whose check failed makes the whole run incorrect.
	res, err := endToEnd([]iterRecord{{Attempted: 10, WallS: 1}, {Invalid: "virtual fingerprint differs"}})
	if err != nil || res.Correct {
		t.Errorf("endToEnd with an invalid iteration: correct=%v err=%v, want incorrect", res.Correct, err)
	}
}

func TestC10KCohorts(t *testing.T) {
	slow, over, regular := c10kCohorts(10000)
	if slow != 200 || over != 100 || regular != 9700 {
		t.Errorf("c10kCohorts(10000) = %d, %d, %d; want 200, 100, 9700", slow, over, regular)
	}
}

func TestSpanBlockedCallsCountedApart(t *testing.T) {
	ms := time.Millisecond
	// A blocks; B runs alone inside it; A resumes and ends.
	r := newSpanRecorder()
	a := r.start("recv", 0)
	b := r.start("sendto", 10*ms)
	r.end(b, 30*ms)
	r.end(a, 50*ms)
	if r.spanned != 50*ms || r.busy != 20*ms || r.self["sendto"] != 20*ms || r.self["recv"] != 0 {
		t.Errorf("nested: spanned %v busy %v self %v; want 50ms, 20ms, sendto 20ms", r.spanned, r.busy, r.self)
	}
	if r.blockedCalls != 1 || r.calls() != 2 || len(r.durUs) != 1 || r.durUs[0] != 20000 {
		t.Errorf("nested: %d blocked of %d calls, durations %v µs; want 1 of 2, [20000]", r.blockedCalls, r.calls(), r.durUs)
	}
	// A ends while B, started later, is still open: both blocked.
	r = newSpanRecorder()
	a = r.start("accept", 0)
	b = r.start("read", 10*ms)
	r.end(a, 20*ms)
	r.end(b, 40*ms)
	if r.spanned != 40*ms || r.busy != 0 || r.blockedCalls != 2 || len(r.durUs) != 0 {
		t.Errorf("overlapping: spanned %v busy %v blocked %d durations %v; want 40ms, 0, 2, none",
			r.spanned, r.busy, r.blockedCalls, r.durUs)
	}
	// Calls one after another, with user time between them.
	r = newSpanRecorder()
	a = r.start("open", 0)
	r.end(a, 5*ms)
	b = r.start("unlink", 8*ms)
	r.end(b, 10*ms)
	if r.spanned != 7*ms || r.busy != 7*ms || r.blockedCalls != 0 || r.self["open"] != 5*ms || r.self["unlink"] != 2*ms {
		t.Errorf("serial: spanned %v busy %v blocked %d self %v; want 7ms, 7ms, 0, open 5ms unlink 2ms",
			r.spanned, r.busy, r.blockedCalls, r.self)
	}
}

var allocSink [][]byte

//go:noinline
func allocForProfileTest() {
	for i := 0; i < 4096; i++ {
		allocSink = append(allocSink, make([]byte, 4096))
	}
}

func TestParseAllocProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocForProfileTest()
	allocSink = nil
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	space, err := prof.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, s := range prof.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".allocForProfileTest") {
				if !strings.HasSuffix(f.file, "hostbench_test.go") {
					t.Errorf("frame %s has file %q", f.fn, f.file)
				}
				got += float64(s.values[space])
				break
			}
		}
	}
	if want := float64(4096 * 4096); got < want {
		t.Errorf("allocForProfileTest allocated %v bytes in the profile, want at least %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
	res, err := endToEnd([]iterRecord{{Attempted: 1, WallS: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, e := range spec.EndToEnd {
		if got, ok := res.Metrics[e.Name]; !ok || got.Unit != e.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", e.Name, e.Unit, got)
		}
	}
	want := perLayerUnits()
	if len(want) != len(spec.PerLayer) {
		t.Fatalf("benchmark prints %d per-layer metrics, BENCHMARK.json lists %d", len(want), len(spec.PerLayer))
	}
	for i, p := range spec.PerLayer {
		if p.Name != want[i][0] || p.Unit != want[i][1] {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, p.Name, p.Unit, want[i][0], want[i][1])
		}
	}
}
