package kernel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestProcGoexitReturnsControl checks that a process goroutine that
// ends through runtime.Goexit — what t.Fatal does inside a process
// body — still hands the machine back: RunUntilIdle returns, and the
// other processes keep running.
func TestProcGoexitReturnsControl(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	if _, err := k.Spawn("quitter", func(p *Proc) {
		p.Syscall(SysGetpid)
		runtime.Goexit()
	}); err != nil {
		t.Fatal(err)
	}
	finished := false
	if _, err := k.Spawn("bystander", func(p *Proc) {
		p.Syscall(SysGetpid)
		p.Syscall(SysYield)
		p.Syscall(SysGetpid)
		finished = true
	}); err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	go func() {
		k.RunUntilIdle()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("RunUntilIdle did not return after a process goroutine exited with runtime.Goexit")
	}
	if !finished {
		t.Error("the other process did not run to completion")
	}
}

// TestUserClockReadSeesOwnSegment checks the per-CPU view of the clock
// during a user segment: a process reading Clock.Cycles around
// Compute(n) sees exactly n cycles pass, as a per-CPU TSC would, while
// the other CPUs run their own segments in the same epoch.
func TestUserClockReadSeesOwnSegment(t *testing.T) {
	for _, ncpu := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dcpu", ncpu), func(t *testing.T) {
			k := bootSMPKernel(t, core.ModeVirtualGhost, ncpu)
			type read struct{ want, got uint64 }
			var reads []read
			for i := 0; i < 2*ncpu; i++ {
				n := uint64(1000 * (i + 1))
				if _, err := k.Spawn("reader", func(p *Proc) {
					for round := 0; round < 3; round++ {
						p.Syscall(SysGetpid)
						before := k.M.Clock.Cycles()
						p.Compute(n)
						reads = append(reads, read{n, k.M.Clock.Cycles() - before})
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			k.RunUntilIdle()
			if len(reads) != 6*ncpu {
				t.Fatalf("%d reads, want %d", len(reads), 6*ncpu)
			}
			for _, r := range reads {
				if r.got != r.want {
					t.Errorf("Compute(%d) advanced the user-context clock by %d", r.want, r.got)
				}
			}
		})
	}
}

// BenchmarkSchedSyscall measures the scheduler's cost per system call
// on a 1-CPU machine: each getpid parks twice (into the kernel phase
// and back to the user phase), and neither park switches goroutines.
func BenchmarkSchedSyscall(b *testing.B) {
	k := bootKernel(b, core.ModeNative)
	if _, err := k.Spawn("getpid", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Syscall(SysGetpid)
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntilIdle()
	b.ReportMetric(float64(k.Stats().ContextSwitch)/float64(b.N), "dispatches/op")
}

// BenchmarkSchedPingPong measures a handoff between two processes that
// block on each other through a pair of pipes. Each op is one hop — a
// write that wakes the blocked peer — so one goroutine switch.
func BenchmarkSchedPingPong(b *testing.B) {
	k := bootKernel(b, core.ModeNative)
	rounds := (b.N + 1) / 2
	if _, err := k.Spawn("ping", func(p *Proc) {
		fds := p.Alloc(16)
		p.Syscall(SysPipe, fds)
		p.Syscall(SysPipe, fds+8)
		toChild, fromParent := p.Load(fds+4, 4), p.Load(fds, 4)
		toParent, fromChild := p.Load(fds+12, 4), p.Load(fds+8, 4)
		buf := p.Alloc(8)
		p.Fork(func(c *Proc) {
			for i := 0; i < rounds; i++ {
				c.Syscall(SysRead, fromParent, buf, 1)
				c.Syscall(SysWrite, toParent, buf, 1)
			}
			c.Exit(0)
		})
		for i := 0; i < rounds; i++ {
			p.Syscall(SysWrite, toChild, buf, 1)
			p.Syscall(SysRead, fromChild, buf, 1)
		}
		p.Wait()
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntilIdle()
	b.ReportMetric(float64(k.Stats().ContextSwitch)/float64(b.N), "dispatches/op")
}
