package kernel

import "fmt"

// This file is the epoch/barrier scheduler used on every multi-CPU
// machine (DESIGN.md §14). Execution proceeds in epochs of three
// strictly ordered phases:
//
//  1. Schedule phase (serial, CPU-id order): every CPU whose slot is
//     empty picks its next runnable process exactly like the classic
//     dispatcher — pending IPIs drain, the context-switch cost is
//     charged, the address space is loaded — and the process is pinned
//     to the CPU as its in-flight slot.
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

// pendKind tells the epoch scheduler which phase resumes a CPU's
// in-flight process next.
type pendKind uint8

const (
	pendNone pendKind = iota
	// pendUser: the process resumes in the next user phase (fresh
	// dispatch of a user-mode process, or its kernel segment finished).
	pendUser
	// pendKernel: the process resumes in the next kernel phase (it
	// parked at a HAL entry, or was redispatched mid-syscall after a
	// yield/block inside the kernel).
	pendKernel
)

// runEpochs drives the epoch scheduler until the predicate is
// satisfied (when non-nil) or no CPU can be given work. It reports
// whether the predicate was satisfied (false for RunUntilIdle's nil
// predicate).
func (k *Kernel) runEpochs(done func() bool) bool {
	for {
		if done != nil && done() {
			return true
		}
		if !k.epoch() {
			// All CPUs idle. If everything is blocked on network
			// timers, skip virtual time to the next expiry and try
			// another epoch (the due timer fires in its Poll).
			if k.idleAdvance() {
				continue
			}
			if done == nil {
				return false
			}
			return done()
		}
	}
}

// epoch advances the machine by one epoch. It reports whether any CPU
// had work (in flight or newly dispatched); an all-idle epoch performs
// nothing and ends the run loop.
func (k *Kernel) epoch() bool {
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
	if !work {
		return false
	}
	k.userPhase()
	k.kernelPhase()
	return true
}

// dispatchEpoch fills CPU c's empty slot with its next runnable
// process, performing the same context switch (and charging the same
// cycles) as the single-CPU dispatcher. Serial context, CPU-id order.
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
	if p.kdepth > 0 {
		// The process parked inside a kernel segment (a yield or block
		// in a syscall handler): it resumes in the kernel phase.
		c.pend = pendKernel
	} else {
		c.pend = pendUser
	}
	// Stamp this CPU's shard trace events with the dispatched process.
	k.M.Clock.SetShardContext(c.id, int32(p.PID), 0)
	c.busy += k.M.Clock.Cycles() - start
}

// userPhase runs one user segment on every slot that is pending user
// execution, serially in CPU-id order, then credits the CPU's busy
// time from its shard and records how the segment ended.
func (k *Kernel) userPhase() {
	k.M.Clock.BeginShardPhase(len(k.cpus))
	for _, c := range k.cpus {
		if c.slot == nil || c.pend != pendUser {
			continue
		}
		p := c.slot
		p.runCh <- struct{}{}
		<-p.yldCh
		c.busy += k.M.Clock.ShardCycles(c.id)
		switch p.parkWhy {
		case parkKernel:
			c.pend = pendKernel
		case parkEnd:
			p.inflight = false
			c.slot = nil
			c.pend = pendNone
		default:
			panic(fmt.Sprintf("kernel: pid %d parked %d out of a user segment", p.PID, p.parkWhy))
		}
	}
	k.M.Clock.EndShardPhase()
}

// kernelPhase is the epoch barrier's serial half: every slot that
// parked wanting kernel work runs it now, one CPU at a time in CPU-id
// order, on the merged global clock.
func (k *Kernel) kernelPhase() {
	for _, c := range k.cpus {
		if c.slot == nil || c.pend != pendKernel {
			continue
		}
		p := c.slot
		k.M.SetCurrentCPU(c.id)
		k.cur = p
		k.M.Clock.SetContext(int32(p.PID), 0)
		start := k.M.Clock.Cycles()
		p.runCh <- struct{}{}
		<-p.yldCh
		k.cur = nil
		k.M.Clock.SetContext(0, 0)
		c.busy += k.M.Clock.Cycles() - start
		switch p.parkWhy {
		case parkUserResume:
			c.pend = pendUser
		case parkEnd:
			p.inflight = false
			c.slot = nil
			c.pend = pendNone
		default:
			panic(fmt.Sprintf("kernel: pid %d parked %d out of a kernel segment", p.PID, p.parkWhy))
		}
	}
}
