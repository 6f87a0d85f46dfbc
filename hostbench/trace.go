package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
)

// The traced run measures from outside the program: spans around every
// syscall handler of the kernels the benchmark booted, and CPU and
// allocation profiles whose stacks are charged to layers (layers.go).

// syscallNums are the syscalls the kernel registers at boot.
var syscallNums = []uint64{
	kernel.SysExit, kernel.SysFork, kernel.SysRead, kernel.SysWrite, kernel.SysOpen, kernel.SysWait4,
	kernel.SysClose, kernel.SysUnlink, kernel.SysGetpid, kernel.SysKill, kernel.SysSigact,
	kernel.SysSigret, kernel.SysPipe, kernel.SysSelect, kernel.SysFsync, kernel.SysSocket,
	kernel.SysConnect, kernel.SysBind, kernel.SysListen, kernel.SysAccept, kernel.SysSendTo,
	kernel.SysRecv, kernel.SysExecve, kernel.SysMmap, kernel.SysMunmap, kernel.SysLseek,
	kernel.SysMkdir, kernel.SysRmdir, kernel.SysStat, kernel.SysSbrk, kernel.SysSwapOut,
	kernel.SysRandom, kernel.SysYield, kernel.SysPollCreate, kernel.SysPollCtl,
	kernel.SysPollWait, kernel.SysNonblock, kernel.SysSockTimeo,
}

// spanRecorder times syscall handlers. One virtual CPU runs one handler
// at a time, so a span event (start or end) of one call while another
// call is open means the open call has blocked (wait4, recv, accept,
// select, ...) and other processes are running. A call that saw no
// other span event while it was open ran alone: its duration is the
// handler's own host time. A call that blocked also holds the host
// time it waited, other processes' user-mode time included, so it is
// counted apart and left out of the handler times and percentiles.
type spanRecorder struct {
	base    time.Time
	last    time.Duration
	nextID  uint64
	open    []openSpan    // in start order
	spanned time.Duration // host time with at least one span open
	// busy, self and durUs cover the calls that did not block.
	busy         time.Duration
	self         map[string]time.Duration // by syscall name
	durUs        []float64
	blockedCalls int
}

type openSpan struct {
	id      uint64
	name    string
	start   time.Duration
	blocked bool
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{base: time.Now(), self: map[string]time.Duration{}}
}

// wrap interposes the recorder on every syscall handler of k through
// the kernel's public handler hook.
func (r *spanRecorder) wrap(k *kernel.Kernel) error {
	for _, num := range syscallNums {
		name := kernel.SyscallName(num)
		var orig kernel.SyscallHandler
		orig = k.SetSyscallHandler(num, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			id := r.start(name, time.Since(r.base))
			defer func() { r.end(id, time.Since(r.base)) }()
			return orig(k, p, ic)
		})
		if orig == nil {
			return fmt.Errorf("trace: kernel has no handler for syscall %s", name)
		}
	}
	return nil
}

// event accounts the interval since the last span event and marks every
// open span except the one with id as blocked.
func (r *spanRecorder) event(id uint64, now time.Duration) {
	if len(r.open) > 0 {
		r.spanned += now - r.last
	}
	r.last = now
	for i := range r.open {
		if r.open[i].id != id {
			r.open[i].blocked = true
		}
	}
}

func (r *spanRecorder) start(name string, now time.Duration) uint64 {
	r.nextID++
	r.event(r.nextID, now)
	r.open = append(r.open, openSpan{id: r.nextID, name: name, start: now})
	return r.nextID
}

func (r *spanRecorder) end(id uint64, now time.Duration) {
	r.event(id, now)
	for i, s := range r.open {
		if s.id != id {
			continue
		}
		if d := now - s.start; s.blocked {
			r.blockedCalls++
		} else {
			r.busy += d
			r.self[s.name] += d
			r.durUs = append(r.durUs, float64(d)/1e3)
		}
		r.open = append(r.open[:i], r.open[i+1:]...)
		return
	}
}

// calls is the number of calls that ended.
func (r *spanRecorder) calls() int { return len(r.durUs) + r.blockedCalls }

// profiler holds a CPU profile in progress and the allocation totals
// by layer at its start (the allocation profile is cumulative).
type profiler struct {
	cpu         bytes.Buffer
	allocBefore map[string]float64
}

func startProfiles() (*profiler, error) {
	p := &profiler{}
	var err error
	if p.allocBefore, err = allocBytesByLayer(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return p, nil
}

// layerProfile is what the profiles attribute to each layer.
type layerProfile struct {
	cpuNs      map[string]float64 // including layerGC
	allocBytes map[string]float64
	cpuSamples int
}

func (p *profiler) stop() (layerProfile, error) {
	pprof.StopCPUProfile()
	lp := layerProfile{cpuNs: map[string]float64{}}
	prof, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return lp, err
	}
	cpu, err := prof.valueIndex("cpu")
	if err != nil {
		return lp, err
	}
	count, err := prof.valueIndex("samples")
	if err != nil {
		return lp, err
	}
	for _, s := range prof.samples {
		lp.cpuNs[attribute(s.stack)] += float64(s.values[cpu])
		lp.cpuSamples += int(s.values[count])
	}
	after, err := allocBytesByLayer()
	if err != nil {
		return lp, err
	}
	lp.allocBytes = map[string]float64{}
	for layer, b := range after {
		lp.allocBytes[layer] = b - p.allocBefore[layer]
	}
	return lp, nil
}

// allocBytesByLayer reads the cumulative allocation profile (sampled
// and scaled by the runtime) and sums allocated bytes by layer.
func allocBytesByLayer() (map[string]float64, error) {
	// The profile publishes allocations when a collection completes;
	// two cycles flush everything allocated so far.
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	space, err := prof.valueIndex("alloc_space")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		out[attribute(s.stack)] += float64(s.values[space])
	}
	return out, nil
}
