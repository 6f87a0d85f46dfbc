package kernel

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

// bootKernel boots a kernel on the requested mode for tests.
func bootKernel(t testing.TB, mode core.Mode) *Kernel {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	var hal core.HAL
	var err error
	switch mode {
	case core.ModeVirtualGhost:
		hal, err = core.NewVM(m)
	default:
		hal, err = core.NewNativeHAL(m)
	}
	if err != nil {
		t.Fatalf("HAL: %v", err)
	}
	k, err := Boot(hal)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return k
}

func modes() []core.Mode { return []core.Mode{core.ModeNative, core.ModeVirtualGhost} }

func TestNullSyscall(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var got uint64
		_, err := k.Spawn("t", func(p *Proc) {
			got = p.Syscall(SysGetpid)
		})
		if err != nil {
			t.Fatalf("[%v] Spawn: %v", mode, err)
		}
		k.RunUntilIdle()
		if got == 0 {
			t.Errorf("[%v] getpid returned 0", mode)
		}
	}
}

func TestFileReadWrite(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var readBack []byte
		_, err := k.Spawn("t", func(p *Proc) {
			path := p.PushString("/hello.txt")
			fd := p.Syscall(SysOpen, path, OCreat|ORdWr)
			if _, bad := IsErr(fd); bad {
				t.Fatalf("[%v] open failed: %d", mode, int64(fd))
			}
			msg := []byte("ghost memory is invisible")
			buf := p.Alloc(len(msg))
			p.Write(buf, msg)
			n := p.Syscall(SysWrite, fd, buf, uint64(len(msg)))
			if int(n) != len(msg) {
				t.Fatalf("[%v] write returned %d", mode, int64(n))
			}
			p.Syscall(SysLseek, fd, 0, 0)
			out := p.Alloc(64)
			n = p.Syscall(SysRead, fd, out, 64)
			readBack = p.Read(out, int(n))
			p.Syscall(SysClose, fd)
		})
		if err != nil {
			t.Fatalf("[%v] Spawn: %v", mode, err)
		}
		k.RunUntilIdle()
		if !bytes.Equal(readBack, []byte("ghost memory is invisible")) {
			t.Errorf("[%v] read back %q", mode, readBack)
		}
	}
}

func TestForkWaitExit(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var childPID, waitPID, code int
		_, err := k.Spawn("parent", func(p *Proc) {
			childPID = p.Fork(func(c *Proc) {
				c.Exit(42)
			})
			waitPID, code = p.Wait()
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		if childPID <= 0 || waitPID != childPID || code != 42 {
			t.Errorf("[%v] fork/wait: child=%d waited=%d code=%d", mode, childPID, waitPID, code)
		}
	}
}

func TestPipe(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var got []byte
		_, err := k.Spawn("piper", func(p *Proc) {
			fdsPtr := p.Alloc(8)
			if ret := p.Syscall(SysPipe, fdsPtr); ret != 0 {
				t.Fatalf("pipe: %d", int64(ret))
			}
			rfd := p.Load(fdsPtr, 4)
			wfd := p.Load(fdsPtr+4, 4)
			p.Fork(func(c *Proc) {
				msg := []byte("through the pipe")
				buf := c.Alloc(len(msg))
				c.Write(buf, msg)
				c.Syscall(SysWrite, wfd, buf, uint64(len(msg)))
				c.Exit(0)
			})
			out := p.Alloc(64)
			n := p.Syscall(SysRead, rfd, out, 64)
			got = p.Read(out, int(n))
			p.Wait()
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		if string(got) != "through the pipe" {
			t.Errorf("[%v] pipe read %q", mode, got)
		}
	}
}

func TestSignalDelivery(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		handled := 0
		_, err := k.Spawn("sig", func(p *Proc) {
			addr := p.RegisterCode(func(p *Proc, args []uint64) {
				handled = int(args[0])
			})
			// Register with the VM (the libc wrapper's job) then
			// install with the kernel.
			if err := p.PermitFunction(addr); err != nil {
				t.Fatalf("permit: %v", err)
			}
			p.Syscall(SysSigact, SIGUSR1, addr)
			// Signal ourselves.
			p.Syscall(SysKill, uint64(p.PID), SIGUSR1)
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		if handled != SIGUSR1 {
			t.Errorf("[%v] handler saw %d, want %d", mode, handled, SIGUSR1)
		}
	}
}

func TestGhostMemoryReadWrite(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var roundTrip []byte
		_, err := k.Spawn("ghost", func(p *Proc) {
			va, err := p.AllocGM(2)
			if err != nil {
				t.Fatalf("[%v] allocgm: %v", mode, err)
			}
			secret := []byte("the secret string")
			p.Write(uint64(va), secret)
			roundTrip = p.Read(uint64(va), len(secret))
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		if string(roundTrip) != "the secret string" {
			t.Errorf("[%v] ghost round trip %q", mode, roundTrip)
		}
	}
}

// TestKernelCannotReadGhost is the heart of the reproduction: the same
// kernel read of a ghost address succeeds natively and is masked away
// under Virtual Ghost.
func TestKernelCannotReadGhost(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var kernelSaw uint64
		var ghostVA hw.Virt
		_, err := k.Spawn("victim", func(p *Proc) {
			va, err := p.AllocGM(1)
			if err != nil {
				t.Fatalf("allocgm: %v", err)
			}
			ghostVA = va
			p.Store(uint64(va), 8, 0xdeadbeefcafef00d)
			// Enter the kernel; the "kernel code" below models a
			// compiled kernel load of the ghost address.
			p.enterKernel()
			kernelSaw, _ = k.HAL.KLoad(p.Root(), ghostVA, 8)
			p.exitKernel()
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		switch mode {
		case core.ModeNative:
			if kernelSaw != 0xdeadbeefcafef00d {
				t.Errorf("native kernel should read the secret, got %#x", kernelSaw)
			}
		case core.ModeVirtualGhost:
			if kernelSaw == 0xdeadbeefcafef00d {
				t.Errorf("virtual ghost kernel read the secret!")
			}
		}
	}
}

func TestMmapAndPageFault(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var val uint64
		_, err := k.Spawn("mapper", func(p *Proc) {
			base := p.Syscall(SysMmap, 4*hw.PageSize, ^uint64(0), 0)
			if _, bad := IsErr(base); bad {
				t.Fatalf("mmap: %d", int64(base))
			}
			p.Store(base+123, 8, 777)
			val = p.Load(base+123, 8)
			if ret := p.Syscall(SysMunmap, base, 4*hw.PageSize); ret != 0 {
				t.Fatalf("munmap: %d", int64(ret))
			}
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		if val != 777 {
			t.Errorf("[%v] mmap store/load got %d", mode, val)
		}
		if k.Stats().PageFaults == 0 {
			t.Errorf("[%v] expected demand-paging faults", mode)
		}
	}
}

func TestExecve(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		ran := false
		// Install the target program. Under Virtual Ghost it must be
		// signed by the trusted installer.
		var bin *core.Binary
		if vm, ok := k.HAL.(*core.VM); ok {
			var err error
			bin, err = vm.Installer().Install("/bin/target", []byte("image"), make([]byte, 32))
			if err != nil {
				t.Fatalf("install: %v", err)
			}
		} else {
			bin = &core.Binary{Name: "/bin/target"}
		}
		k.InstallProgram("/bin/target", bin, func(p *Proc) {
			ran = true
			p.Exit(7)
		})
		var code int
		_, err := k.Spawn("launcher", func(p *Proc) {
			p.Fork(func(c *Proc) {
				_ = c.Exec("/bin/target")
				c.Exit(1) // unreachable on success
			})
			_, code = p.Wait()
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		if !ran || code != 7 {
			t.Errorf("[%v] exec ran=%v code=%d", mode, ran, code)
		}
	}
}

func TestSocketsLoopback(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		hw.Connect(k.M.NIC, k.M.NIC) // loopback
		var got []byte
		_, err := k.Spawn("server", func(p *Proc) {
			sfd := p.Syscall(SysSocket)
			p.Syscall(SysBind, sfd, 80)
			p.Syscall(SysListen, sfd)
			cfd := p.Syscall(SysAccept, sfd)
			buf := p.Alloc(128)
			n := p.Syscall(SysRecv, cfd, buf, 128)
			got = p.Read(buf, int(n))
		})
		if err != nil {
			t.Fatalf("Spawn server: %v", err)
		}
		_, err = k.Spawn("client", func(p *Proc) {
			fd := p.Syscall(SysSocket)
			p.Syscall(SysConnect, fd, 80)
			msg := []byte("GET /")
			buf := p.Alloc(len(msg))
			p.Write(buf, msg)
			p.Syscall(SysSendTo, fd, buf, uint64(len(msg)))
		})
		if err != nil {
			t.Fatalf("Spawn client: %v", err)
		}
		k.RunUntilIdle()
		if string(got) != "GET /" {
			t.Errorf("[%v] server got %q", mode, got)
		}
	}
}

func TestVirtualGhostSlowerThanNative(t *testing.T) {
	elapsed := map[core.Mode]uint64{}
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var start, end uint64
		_, err := k.Spawn("bench", func(p *Proc) {
			start = k.M.Clock.Cycles()
			for i := 0; i < 200; i++ {
				p.Syscall(SysGetpid)
			}
			end = k.M.Clock.Cycles()
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		elapsed[mode] = end - start
	}
	if elapsed[core.ModeVirtualGhost] <= elapsed[core.ModeNative] {
		t.Errorf("VG (%d cycles) should cost more than native (%d)",
			elapsed[core.ModeVirtualGhost], elapsed[core.ModeNative])
	}
}
