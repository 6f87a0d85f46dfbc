package kernel

import "fmt"

// This file is the epoch/barrier scheduler every machine runs, whatever
// its CPU count (DESIGN.md §14). Execution proceeds in epochs of three
// strictly ordered phases:
//
//  1. Schedule phase (serial, CPU-id order): every CPU whose slot is
//     empty picks its next runnable process — pending IPIs drain, the
//     context-switch cost is charged, the address space is loaded — and
//     the process is pinned to the CPU as its in-flight slot.
//  2. User phase (serial, CPU-id order): every slot whose process is
//     in user mode runs one user segment — user instructions up to the
//     next HAL entry (syscall, trap, ghost/key operation) or voluntary
//     end. Segments charge only that CPU's private clock shard
//     (hw.Clock.BeginShardPhase); a global charge panics.
//  3. Kernel phase (serial, CPU-id order): the barrier. Shards merge
//     into the global clock in CPU-id order, then each slot that
//     parked wanting kernel work runs its kernel segment — syscall
//     handlers, fault handling, IPIs, TLB shootdowns, signal delivery
//     — on the shared global clock, exactly one at a time.
//
// Every phase runs in a fixed order and the per-CPU shards merge at the
// barrier in CPU-id order, so every virtual number — cycle totals,
// ledgers, per-CPU attribution, trace events, experiment tables — is a
// function of the workload alone.
//
// The loop is a step function, not a goroutine: next advances it from
// one segment to the following one. Whichever goroutine holds the
// machine runs it — the parking process (Proc.park) or the RunUntil
// caller — so a park that resumes the same process switches no
// goroutine, and a park that resumes another switches exactly once.

// schedPhase is the epoch phase the step function is in.
type schedPhase uint8

const (
	// phaseTop: between epochs — check the run's predicate, poll the
	// network, fill empty CPU slots.
	phaseTop schedPhase = iota
	phaseUser
	phaseKernel
)

// schedState is the step function's position in the epoch loop.
type schedState struct {
	phase   schedPhase
	cursor  int    // next CPU the user or kernel phase visits
	resumed int    // CPU whose process was resumed last; -1 once settled
	kstart  uint64 // clock reading when the running kernel segment began

	done func() bool   // the run's predicate (nil: run until idle)
	wake chan struct{} // hands the machine back to the RunUntil caller
}

// RunUntilIdle schedules processes until none is runnable (all blocked,
// zombies, or no processes left) and no armed timer can unblock one.
// Network input is polled once per epoch so packets from a peer machine
// wake blocked readers; when everything is blocked on timers, virtual
// time skips to the next expiry (idleAdvance) instead of busy-spinning.
func (k *Kernel) RunUntilIdle() { k.RunUntil(nil) }

// RunUntil schedules until the predicate becomes true or the kernel
// goes idle. It reports whether the predicate was satisfied (always
// false for a nil predicate, which runs until idle).
func (k *Kernel) RunUntil(done func() bool) bool {
	s := &k.sched
	s.phase, s.cursor, s.resumed, s.done = phaseTop, 0, -1, done
	if p := k.next(); p != nil {
		k.handoff(p)
		<-s.wake
	}
	s.done = nil
	return done != nil && done()
}

// handoff passes the machine to p, or back to the RunUntil caller when
// p is nil. The sender must not touch kernel state afterwards until it
// is itself resumed.
func (k *Kernel) handoff(p *Proc) {
	if p == nil {
		k.sched.wake <- struct{}{}
		return
	}
	p.wake <- struct{}{}
}

// next settles the segment the last resumed process just parked out of
// and advances the epoch loop to the next segment to run, returning its
// process. It returns nil when the run is over: the predicate holds,
// or every CPU is idle and idleAdvance cannot skip to a timer.
func (k *Kernel) next() *Proc {
	s := &k.sched
	if s.resumed >= 0 {
		k.settle(k.cpus[s.resumed])
		s.resumed = -1
	}
	for {
		switch s.phase {
		case phaseTop:
			if s.done != nil && s.done() {
				return nil
			}
			if !k.schedulePhase() {
				// All CPUs idle. If everything is blocked on network
				// timers, skip virtual time to the next expiry and try
				// another epoch (the due timer fires in its Poll).
				if k.idleAdvance() {
					continue
				}
				return nil
			}
			k.M.Clock.BeginShardPhase(len(k.cpus))
			s.phase, s.cursor = phaseUser, 0
		case phaseUser:
			if c := k.nextSlot(false); c != nil {
				// User-context clock reads see this CPU's own time.
				k.M.Clock.SetCPU(c.id)
				s.resumed = c.id
				return c.slot
			}
			k.M.Clock.EndShardPhase()
			s.phase, s.cursor = phaseKernel, 0
		case phaseKernel:
			if c := k.nextSlot(true); c != nil {
				p := c.slot
				k.M.SetCurrentCPU(c.id)
				k.M.Clock.SetContext(int32(p.PID), 0)
				s.kstart = k.M.Clock.Cycles()
				s.resumed = c.id
				return p
			}
			s.phase = phaseTop
		}
	}
}

// current returns the process whose kernel segment is running, or nil.
func (k *Kernel) current() *Proc {
	if s := &k.sched; s.phase == phaseKernel && s.resumed >= 0 {
		return k.cpus[s.resumed].slot
	}
	return nil
}

// schedulePhase polls the network and fills every empty CPU slot. It
// reports whether any CPU has work; an all-idle epoch does nothing
// more.
func (k *Kernel) schedulePhase() bool {
	// Network input is polled once per epoch, before scheduling, so
	// packets from a peer machine promote blocked readers this epoch.
	k.Net.Poll()
	work := false
	for _, c := range k.cpus {
		if c.slot == nil {
			k.dispatchEpoch(c)
		}
		if c.slot != nil {
			work = true
		}
	}
	return work
}

// nextSlot advances the phase's CPU cursor to the next CPU whose
// in-flight process waits for the kernel phase (inKernel) or the user
// phase. A process inside a kernel entry (kdepth > 0) resumes only in
// the kernel phase: it parked at a HAL entry, or was redispatched
// after a yield or block inside a syscall handler.
func (k *Kernel) nextSlot(inKernel bool) *cpuRun {
	s := &k.sched
	for s.cursor < len(k.cpus) {
		c := k.cpus[s.cursor]
		s.cursor++
		if c.slot != nil && (c.slot.kdepth > 0) == inKernel {
			return c
		}
	}
	return nil
}

// settle closes the segment CPU c's process parked out of: it credits
// the CPU's busy time and frees the slot when the dispatch is over.
// Otherwise the process crossed the user/kernel boundary, and resumes
// in the other phase.
func (k *Kernel) settle(c *cpuRun) {
	p := c.slot
	user := k.sched.phase == phaseUser
	if user {
		c.busy += k.M.Clock.ShardCycles(c.id)
	} else {
		k.M.Clock.SetContext(0, 0)
		c.busy += k.M.Clock.Cycles() - k.sched.kstart
	}
	if p.parkWhy == parkEnd {
		p.inflight = false
		c.slot = nil
	} else if (p.kdepth > 0) != user {
		panic(fmt.Sprintf("kernel: pid %d parked %d at kernel depth %d out of a segment in phase %d", p.PID, p.parkWhy, p.kdepth, k.sched.phase))
	}
}

// dispatchEpoch fills CPU c's empty slot with its next runnable
// process, performing the context switch (and charging its cycles).
// Serial context, CPU-id order.
func (k *Kernel) dispatchEpoch(c *cpuRun) {
	p := k.pickNextOn(c)
	if p == nil {
		p = k.steal(c)
	}
	if p == nil {
		return
	}
	start := k.switchTo(c, p)
	p.inflight = true
	c.slot = p
	// Stamp this CPU's shard trace events with the dispatched process.
	k.M.Clock.SetShardContext(c.id, int32(p.PID), 0)
	c.busy += k.M.Clock.Cycles() - start
}
