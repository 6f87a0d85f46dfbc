package kernel

import (
	"fmt"

	"repro/internal/hw"
)

// This file is the scheduler: per-CPU round-robin run queues over
// cooperative process goroutines. On a single-CPU machine the original
// serial loop below runs one process goroutine at a time and nothing
// else. Multi-CPU machines always run the deterministic epoch/barrier
// scheduler instead (epoch.go): each epoch every CPU is dispatched one
// user segment, the segments run in CPU-id order, and all cross-CPU
// effects are delivered at the epoch barrier in CPU-id order. Either
// way exactly one process goroutine runs at a time.
//
// Virtual parallelism is modeled by attribution: every dispatch
// samples the clock around the process's time slice and charges it to
// the dispatching CPU's busy counter. Experiments derive per-CPU
// utilization and makespan (max busy across CPUs) from these counters.

// cpuRun is one virtual CPU's scheduler state: a sorted PID run queue,
// maintained incrementally on process creation/exit/migration rather
// than rebuilt per dispatch, plus round-robin and accounting state.
type cpuRun struct {
	id      int
	pids    []int // ascending; invariant maintained by schedAdd/schedRemove
	lastPID int   // last dispatched PID (round-robin cursor)
	busy    uint64

	// Epoch-scheduler slot state (epoch.go): the process currently
	// pinned to this CPU, and which phase resumes it next.
	slot *Proc
	pend pendKind
}

// insertPID adds pid to the sorted queue.
func (c *cpuRun) insertPID(pid int) {
	i := len(c.pids)
	for i > 0 && c.pids[i-1] > pid {
		i--
	}
	c.pids = append(c.pids, 0)
	copy(c.pids[i+1:], c.pids[i:])
	c.pids[i] = pid
}

// removePID drops pid from the queue (no-op if absent).
func (c *cpuRun) removePID(pid int) {
	for i, v := range c.pids {
		if v == pid {
			c.pids = append(c.pids[:i], c.pids[i+1:]...)
			return
		}
	}
}

// schedAdd enqueues a new process on its home CPU's run queue.
func (k *Kernel) schedAdd(p *Proc) {
	k.cpus[p.cpu].insertPID(p.PID)
}

// schedRemove drops a reaped process from its run queue.
func (k *Kernel) schedRemove(p *Proc) {
	k.cpus[p.cpu].removePID(p.PID)
}

// pickNextOn promotes blocked processes on c's queue whose wait
// condition has become true and returns the next runnable process in
// round-robin order (first runnable PID strictly after the
// last-dispatched one, wrapping). The queue is kept sorted by
// schedAdd/schedRemove, so this is one linear scan with no per-call
// rebuild or sort.
func (k *Kernel) pickNextOn(c *cpuRun) *Proc {
	var first, after *Proc
	for _, pid := range c.pids {
		p := k.procs[pid]
		if p.state == procBlocked && p.cond != nil && p.cond() {
			p.state = procRunnable
			p.cond = nil
		}
		// In-flight processes already occupy an epoch slot (possibly on
		// another CPU); no second slot may pick them up.
		if p.state != procRunnable || p.inflight {
			continue
		}
		if first == nil {
			first = p
		}
		if after == nil && pid > c.lastPID {
			after = p
		}
	}
	if after != nil {
		return after
	}
	return first
}

// steal migrates a runnable process from another CPU's queue to the
// idle CPU c. Queues are scanned in a deterministic order starting
// after c; only already-runnable processes are taken (blocked ones are
// promoted by their home CPU's own pickNextOn pass).
func (k *Kernel) steal(c *cpuRun) *Proc {
	n := len(k.cpus)
	for i := 1; i < n; i++ {
		victim := k.cpus[(c.id+i)%n]
		for _, pid := range victim.pids {
			p := k.procs[pid]
			if p.state != procRunnable || p.inflight {
				continue
			}
			victim.removePID(pid)
			p.cpu = c.id
			c.insertPID(pid)
			k.stats.Steals++
			return p
		}
	}
	return nil
}

// switchTo is the context switch both schedulers perform to put p on
// CPU c: select the CPU, deliver its pending IPIs (rescheduling
// requests from cross-CPU signal posts, whose architectural effect is
// forcing this trip through the scheduler), count and charge the
// switch, and load p's thread and address space in user mode. It
// returns the clock reading before the switch, from which the caller
// credits c's busy time.
func (k *Kernel) switchTo(c *cpuRun, p *Proc) (start uint64) {
	k.M.SetCurrentCPU(c.id)
	start = k.M.Clock.Cycles()
	k.M.DrainIPIs(c.id)
	c.lastPID = p.PID
	k.stats.ContextSwitch++
	k.HAL.KAccess(workSched)
	k.M.Clock.Charge(hw.TagSched, hw.CostContextSwitch)
	k.HAL.SetCurrentThread(p.tid)
	if err := k.HAL.LoadAddressSpace(p.root); err != nil {
		panic(fmt.Sprintf("kernel: context switch to pid %d: %v", p.PID, err))
	}
	k.M.Cur().Regs.Priv = hw.User
	p.onCPU = c.id
	return start
}

// dispatchOn runs one process on CPU c until it yields, blocks, or
// exits, attributing the elapsed virtual time to c.
func (k *Kernel) dispatchOn(c *cpuRun, p *Proc) {
	start := k.switchTo(c, p)
	k.cur = p
	k.M.Clock.SetContext(int32(p.PID), 0)
	p.runCh <- struct{}{}
	<-p.yldCh
	k.cur = nil
	k.M.Clock.SetContext(0, 0)
	c.busy += k.M.Clock.Cycles() - start
}

// schedStep advances the machine by one dispatch: CPUs are offered the
// chance to run in round-robin order starting after the CPU that
// dispatched last; a CPU with an empty queue tries to steal. Reports
// whether any process ran.
func (k *Kernel) schedStep() bool {
	n := len(k.cpus)
	for i := 0; i < n; i++ {
		id := (k.lastCPU + 1 + i) % n
		c := k.cpus[id]
		p := k.pickNextOn(c)
		if p == nil && n > 1 {
			p = k.steal(c)
		}
		if p == nil {
			continue
		}
		k.lastCPU = id
		k.dispatchOn(c, p)
		return true
	}
	return false
}

// RunUntilIdle schedules processes until none is runnable (all blocked,
// zombies, or no processes left) and no armed timer can unblock one.
// Network input is polled between dispatches so packets from a peer
// machine wake blocked readers; when everything is blocked on timers,
// virtual time skips to the next expiry (idleAdvance) instead of
// busy-spinning.
func (k *Kernel) RunUntilIdle() {
	if k.epochMode {
		k.runEpochs(nil)
		return
	}
	for {
		k.Net.Poll()
		if !k.schedStep() && !k.idleAdvance() {
			return
		}
	}
}

// RunUntil schedules until the predicate becomes true or the kernel
// goes idle. It reports whether the predicate was satisfied.
func (k *Kernel) RunUntil(done func() bool) bool {
	if k.epochMode {
		return k.runEpochs(done)
	}
	for !done() {
		k.Net.Poll()
		if !k.schedStep() && !k.idleAdvance() {
			return done()
		}
	}
	return true
}

// IdleInfo implements hw.IdleSource: the earliest armed network timer
// and whether this kernel has work that must run before virtual time
// may skip (a runnable process, or pending NIC frames that a drain
// could actually deliver — window-blocked frames don't count, their
// delivery depends on a consumer that is itself blocked).
func (k *Kernel) IdleInfo() (uint64, bool, bool) {
	runnable := k.Net.deliverable()
	if !runnable {
		for _, p := range k.procs {
			if p.state == procRunnable && !p.inflight {
				runnable = true
				break
			}
		}
	}
	next, has := k.Net.timerNext()
	return next, has, runnable
}

// idleAdvance is the timer-interrupt half of idle handling: with every
// process blocked, if this kernel's earliest armed timer is the
// soonest event on the shared clock (no kernel anywhere has runnable
// work, none has an earlier timer), virtual time skips straight to
// that expiry — the simulation analogue of halting until the next
// timer interrupt. The skipped span is charged to TagNet (it exists
// only because a network timeout is pending). Reports whether the
// caller should poll again: the due timer fires on the next Poll.
func (k *Kernel) idleAdvance() bool {
	mine, has := k.Net.timerNext()
	if !has {
		return false
	}
	target, ok := k.M.Clock.IdleTarget()
	if !ok {
		return false // someone on this clock still has runnable work
	}
	if target < mine {
		return false // an earlier timer elsewhere: that kernel skips
	}
	now := k.M.Clock.Cycles()
	if mine > now {
		k.M.Clock.Charge(hw.TagNet, mine-now)
	}
	return true
}

// NumLive returns how many processes are not yet dead (zombies count:
// they still need reaping).
func (k *Kernel) NumLive() int {
	n := 0
	for _, p := range k.procs {
		if p.state != procDead {
			n++
		}
	}
	return n
}

// NumCPUs returns the machine's virtual CPU count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// CPUBusy returns the busy-cycle counter of each virtual CPU: the
// virtual time spent in that CPU's dispatches since boot. The CPU-
// scaling experiment derives makespan (max over CPUs of the busy
// delta) and per-CPU utilization from these.
func (k *Kernel) CPUBusy() []uint64 {
	out := make([]uint64, len(k.cpus))
	for i, c := range k.cpus {
		out[i] = c.busy
	}
	return out
}

// World co-schedules several machines' kernels (e.g. the server and the
// client of a network experiment) over a shared clock: it alternates
// RunUntilIdle across kernels until no kernel makes progress or the
// predicate is satisfied.
type World struct {
	Kernels []*Kernel
}

// Run alternates the kernels until done() or global quiescence.
// It reports whether done() was satisfied. Progress is a context
// switch or any virtual-time charge: a timer-driven pass (idle skip,
// expiry handlers) can make progress — close connections, send FINs —
// without dispatching a process, and must not read as quiescence.
func (w *World) Run(done func() bool) bool {
	for {
		if done() {
			return true
		}
		progress := false
		for _, k := range w.Kernels {
			beforeCS := k.stats.ContextSwitch
			beforeCycles := k.M.Clock.Cycles()
			k.RunUntilIdle()
			if k.stats.ContextSwitch != beforeCS || k.M.Clock.Cycles() != beforeCycles {
				progress = true
			}
		}
		if !progress {
			return done()
		}
	}
}
