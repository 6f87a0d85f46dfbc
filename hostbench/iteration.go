package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/hw"
)

// iterRecord is what one child process reports about its iteration.
type iterRecord struct {
	// Invalid is set, with the reason, when the iteration's virtual
	// results failed the fingerprint or invariant check.
	Invalid string `json:"invalid,omitempty"`

	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	Mallocs   float64 `json:"mallocs"`
	GCCycles  float64 `json:"gc_cycles"`
	// Counts are the program's exact counters and the measured phase's
	// virtual cycles by tag ("vcycles.<tag>").
	Counts map[string]float64 `json:"counts"`
	Trace  *iterTrace         `json:"trace,omitempty"`
}

// iterTrace is the traced part of a record.
type iterTrace struct {
	CPUNs      map[string]float64 `json:"cpu_ns"` // by layer, gc included
	AllocBytes map[string]float64 `json:"alloc_bytes"`
	CPUSamples int                `json:"cpu_samples"`
	Calls      int                `json:"calls"`
	// BusyNs, SelfNs and the percentiles cover the calls that did not
	// block; BlockedNs is the rest of the time a span was open.
	BusyNs       float64            `json:"busy_ns"`
	SelfNs       map[string]float64 `json:"self_ns"` // by syscall name
	BlockedCalls int                `json:"blocked_calls"`
	BlockedNs    float64            `json:"blocked_ns"`
	P50us        float64            `json:"p50_us"`
	// P99us is zero when fewer than minBeyond calls lie above it.
	P99us float64 `json:"p99_us"`
}

// setupRepeats is how many times an iteration sets up; set-up takes a
// few milliseconds, so one timing is at the mercy of a single page-fault
// burst or collection, and the median of several is reported.
const setupRepeats = 5

// runIteration boots w's systems, runs the measured phase once and
// records its host costs. The measured phase uses the last set-up and
// starts from a collected heap; the peak RSS covers it alone. A traced
// iteration profiles its set-ups too, so boot-time work such as module
// translation shows in its layer.
func runIteration(w workload, seed uint64, pins pinFile, traced bool) (iterRecord, error) {
	var rec iterRecord
	var b *batch
	var err error
	var prof *profiler
	if traced {
		if prof, err = startProfiles(); err != nil {
			return rec, err
		}
	}
	setups := make([]float64, setupRepeats)
	for i := range setups {
		t0 := time.Now()
		b, err = w.setup(seed)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			return rec, err
		}
	}
	rec.SetupS = median(setups)

	var spans *spanRecorder
	if traced {
		spans = newSpanRecorder()
		for _, s := range b.systems {
			if err := spans.wrap(s.Kernel); err != nil {
				return rec, err
			}
		}
	}
	runtime.GC()

	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t1 := time.Now()
	out, runErr := b.run()
	rec.WallS = time.Since(t1).Seconds()
	rec.CPUS = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return rec, err
	}
	if runErr != nil {
		rec.Invalid = runErr.Error()
		return rec, nil
	}
	if err := checkFingerprint(pins, w, seed, out.fp); err != nil {
		rec.Invalid = err.Error()
		return rec, nil
	}

	rec.Attempted, rec.Failed = out.attempted, out.failed
	rec.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rec.Mallocs = float64(m1.Mallocs - m0.Mallocs)
	rec.GCCycles = float64(m1.NumGC - m0.NumGC)
	rec.Counts = systemCounts(b.systems)
	for k, v := range out.counts {
		rec.Counts[k] += v
	}
	for t := hw.Tag(0); t < hw.NumTags; t++ {
		rec.Counts["vcycles."+t.String()] = float64(out.ledger[t])
	}

	if traced {
		lp, err := prof.stop()
		if err != nil {
			return rec, err
		}
		tr := &iterTrace{
			CPUNs: lp.cpuNs, AllocBytes: lp.allocBytes, CPUSamples: lp.cpuSamples,
			Calls: spans.calls(), BusyNs: float64(spans.busy), SelfNs: map[string]float64{},
			BlockedCalls: spans.blockedCalls, BlockedNs: float64(spans.spanned - spans.busy),
		}
		for name, d := range spans.self {
			tr.SelfNs[name] = float64(d)
		}
		sort.Float64s(spans.durUs)
		tr.P50us, _ = percentile(spans.durUs, 0.50)
		if p99, ok := percentile(spans.durUs, 0.99); ok {
			tr.P99us = p99
		}
		rec.Trace = tr
	}
	return rec, nil
}
