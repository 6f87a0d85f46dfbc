package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples, and whether at least minBeyond samples lie beyond it; a
// tail percentile without that support is not reported.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minBeyond
}

// failRatio is failed operations over attempted ones; an empty base is
// an error, since a ratio without its base means nothing.
func failRatio(failed, attempted int) (float64, error) {
	if attempted <= 0 || failed < 0 || failed > attempted {
		return 0, fmt.Errorf("fail ratio: %d failed of %d attempted", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}

// cpuSeconds is the process's user+system CPU time, every thread
// included (the collector's background workers too).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking at the
// current RSS, so the peak read afterwards covers the measured phase.
// Where the kernel refuses, the peak covers the whole child process,
// whose set-up is small next to its measured phase, so the error is
// dropped.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("peak rss: unexpected line %q", line)
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
