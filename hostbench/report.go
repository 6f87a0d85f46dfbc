package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/hw"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult totals the records' operations; the run is correct when
// every iteration's virtual results passed their check.
func newResult(recs ...[]iterRecord) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, rs := range recs {
		for _, r := range rs {
			if r.Invalid != "" {
				fmt.Fprintln(os.Stderr, "hostbench: incorrect virtual results:", r.Invalid)
				res.Correct = false
			}
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
	}
	return res
}

// field collects one number from every record.
func field(recs []iterRecord, f func(r iterRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

// endToEnd reports the end-to-end metrics: medians over iterations,
// and the share of attempted operations that succeeded.
func endToEnd(recs []iterRecord) (result, error) {
	res := newResult(recs)
	if !res.Correct {
		return res, nil
	}
	fail, err := failRatio(res.Failed, res.Attempted)
	if err != nil {
		return res, err
	}
	res.Metrics = map[string]metric{
		"ops_per_s": {median(field(recs, func(r iterRecord) float64 {
			return float64(r.Attempted-r.Failed) / r.WallS
		})), "op/s"},
		"cpu_s":         {median(field(recs, func(r iterRecord) float64 { return r.CPUS })), "s"},
		"peak_rss_mb":   {median(field(recs, func(r iterRecord) float64 { return r.PeakRSSMB })), "MB"},
		"setup_s":       {median(field(recs, func(r iterRecord) float64 { return r.SetupS })), "s"},
		"success_ratio": {1 - fail, "ratio"},
	}
	return res, nil
}

// spanNames are the syscalls whose handler time is reported by name:
// each is above 1% of syscall.busy_ms on bulk_http, postmark or lmbench.
var spanNames = []string{
	"open", "read", "write", "unlink",
	"sendto", "recv",
	"fork", "execve", "exit", "mmap", "munmap", "kill", "sigaction", "select",
}

// counterNames are the program's exact counters (workloads.go).
var counterNames = [][2]string{
	{"kernel.syscalls", "count"}, {"kernel.ctx_switches", "count"},
	{"kernel.page_faults", "count"}, {"kernel.forks", "count"},
	{"kernel.net.timer_fires", "count"}, {"kernel.net.timeout_kills", "count"},
	{"kernel.net.syn_drops", "count"}, {"kernel.net.late_drops", "count"},
	{"hw.nic.sent", "B"}, {"hw.nic.received", "B"}, {"hw.nic.dropped", "count"},
	{"hw.disk.reads", "count"}, {"hw.disk.writes", "count"},
	{"kernel.fs.bufcache_hit_ratio", "ratio"}, {"kernel.fs.bufcache_lookups", "count"},
	{"kernel.fs.writebacks", "count"},
	{"vir.ic_hit_ratio", "ratio"}, {"vir.ic_lookups", "count"}, {"vir.sites_fused", "count"},
	{"vir.masks_elided", "count"}, {"vir.cfi_elided", "count"},
}

// perLayerUnits lists every per-layer metric with its unit, in the
// order BENCHMARK.json gives them.
func perLayerUnits() [][2]string {
	var m [][2]string
	for _, l := range layers {
		m = append(m, [2]string{l + ".host_ms", "ms"}, [2]string{l + ".alloc_mb", "MB"})
	}
	m = append(m, [][2]string{
		{"runtime.gc_ms", "ms"}, {"profile.cpu_samples", "count"}, {"trace_overhead", "ratio"},
		{"syscall.calls", "count"}, {"syscall.busy_ms", "ms"},
		{"syscall.blocked_calls", "count"}, {"syscall.blocked_ms", "ms"},
		{"syscall.p50_us", "us"}, {"syscall.p99_us", "us"}, {"syscall.samples", "count"},
	}...)
	for _, n := range spanNames {
		m = append(m, [2]string{"syscall." + n + ".busy_ms", "ms"})
	}
	m = append(m, counterNames...)
	for t := hw.Tag(0); t < hw.NumTags; t++ {
		m = append(m, [2]string{"vcycles." + t.String(), "cycles"})
	}
	return append(m, [][2]string{
		{"memstats.alloc_mb", "MB"}, {"memstats.mallocs", "count"}, {"memstats.gc_cycles", "count"},
		{"host_ns_per_syscall", "ns"}, {"host_ns_per_mcycle", "ns"},
	}...)
}

// perLayer reports the per-layer metrics. Profile and span times are
// means per traced iteration; the percentiles are medians over traced
// iterations; counts and memory statistics come from the untraced
// iterations, where tracing does not disturb them.
func perLayer(plain, traced []iterRecord) (result, error) {
	res := newResult(plain, traced)
	if !res.Correct {
		return res, nil
	}
	n := float64(len(traced))
	sum := func(f func(t *iterTrace) float64) float64 {
		var s float64
		for _, r := range traced {
			s += f(r.Trace)
		}
		return s
	}
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".host_ms"] = sum(func(t *iterTrace) float64 { return t.CPUNs[l] }) / 1e6 / n
		v[l+".alloc_mb"] = sum(func(t *iterTrace) float64 { return t.AllocBytes[l] }) / (1 << 20) / n
	}
	v["runtime.gc_ms"] = sum(func(t *iterTrace) float64 { return t.CPUNs[layerGC] }) / 1e6 / n
	v["profile.cpu_samples"] = sum(func(t *iterTrace) float64 { return float64(t.CPUSamples) })

	opsPerS := func(r iterRecord) float64 { return float64(r.Attempted-r.Failed) / r.WallS }
	v["trace_overhead"] = median(field(traced, opsPerS)) / median(field(plain, opsPerS))

	busy := sum(func(t *iterTrace) float64 { return t.BusyNs })
	v["syscall.calls"] = sum(func(t *iterTrace) float64 { return float64(t.Calls) }) / n
	v["syscall.busy_ms"] = busy / 1e6 / n
	v["syscall.blocked_calls"] = sum(func(t *iterTrace) float64 { return float64(t.BlockedCalls) }) / n
	v["syscall.blocked_ms"] = sum(func(t *iterTrace) float64 { return t.BlockedNs }) / 1e6 / n
	v["syscall.p50_us"] = median(field(traced, func(r iterRecord) float64 { return r.Trace.P50us }))
	v["syscall.p99_us"] = median(field(traced, func(r iterRecord) float64 { return r.Trace.P99us }))
	v["syscall.samples"] = sum(func(t *iterTrace) float64 { return float64(t.Calls - t.BlockedCalls) })
	var above []string
	for name := range traced[0].Trace.SelfNs {
		self := sum(func(t *iterTrace) float64 { return t.SelfNs[name] })
		if self >= 0.01*busy {
			above = append(above, name)
		}
	}
	sort.Strings(above)
	if len(above) > 0 {
		fmt.Fprintf(os.Stderr, "hostbench: syscalls above 1%% of span busy time: %v\n", above)
	}
	for _, name := range spanNames {
		v["syscall."+name+".busy_ms"] = sum(func(t *iterTrace) float64 { return t.SelfNs[name] }) / 1e6 / n
	}

	for k := range plain[0].Counts {
		v[k] = median(field(plain, func(r iterRecord) float64 { return r.Counts[k] }))
	}
	v["memstats.alloc_mb"] = median(field(plain, func(r iterRecord) float64 { return r.AllocMB }))
	v["memstats.mallocs"] = median(field(plain, func(r iterRecord) float64 { return r.Mallocs }))
	v["memstats.gc_cycles"] = median(field(plain, func(r iterRecord) float64 { return r.GCCycles }))
	wallNs := median(field(plain, func(r iterRecord) float64 { return r.WallS * 1e9 }))
	var mcycles float64
	for t := hw.Tag(0); t < hw.NumTags; t++ {
		mcycles += v["vcycles."+t.String()] / 1e6
	}
	v["host_ns_per_syscall"] = ratio(wallNs, v["kernel.syscalls"])
	v["host_ns_per_mcycle"] = ratio(wallNs, mcycles)

	for _, m := range perLayerUnits() {
		val, ok := v[m[0]]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", m[0])
		}
		res.Metrics[m[0]] = metric{val, m[1]}
	}
	return res, nil
}
