package kernel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vir"
)

// buildCounterModule is a benign module: it keeps a counter in kernel
// memory and exposes bump/read entry points.
func buildCounterModule() *vir.Module {
	m := vir.NewModule("counter")
	const slot = 0xffffff8000001000 // kernel-space variable

	b := vir.NewFunction("bump", 1)
	cur := b.Load(vir.Imm(slot), 8)
	next := b.Add(cur, b.Param(0))
	b.Store(vir.Imm(slot), next, 8)
	b.Ret(next)
	if err := m.AddFunc(b.Fn()); err != nil {
		panic(err)
	}

	r := vir.NewFunction("read_counter", 0)
	r.Ret(r.Load(vir.Imm(slot), 8))
	if err := m.AddFunc(r.Fn()); err != nil {
		panic(err)
	}
	return m
}

func TestBenignModuleRunsOnBothConfigs(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		mod, err := k.LoadModule(buildCounterModule())
		if err != nil {
			t.Fatalf("[%v] load: %v", mode, err)
		}
		for i := 1; i <= 3; i++ {
			if _, err := k.RunModuleFunc(mod, "bump", 10); err != nil {
				t.Fatalf("[%v] bump: %v", mode, err)
			}
		}
		got, err := k.RunModuleFunc(mod, "read_counter")
		if err != nil {
			t.Fatalf("[%v] read: %v", mode, err)
		}
		if got != 30 {
			t.Errorf("[%v] counter = %d, want 30", mode, got)
		}
	}
}

func TestModuleInstrumentationDiffersByConfig(t *testing.T) {
	native := bootKernel(t, core.ModeNative)
	vg := bootKernel(t, core.ModeVirtualGhost)
	nmod, err := native.LoadModule(buildCounterModule())
	if err != nil {
		t.Fatal(err)
	}
	vmod, err := vg.LoadModule(buildCounterModule())
	if err != nil {
		t.Fatal(err)
	}
	naddr, _ := nmod.Translation.Entry("bump")
	vaddr, _ := vmod.Translation.Entry("bump")
	nf, _ := native.HAL.CodeSpace().FuncByAddr(naddr)
	vf, _ := vg.HAL.CodeSpace().FuncByAddr(vaddr)
	if nf.Sandboxed || nf.Labeled {
		t.Errorf("native module instrumented")
	}
	if !vf.Sandboxed || !vf.Labeled {
		t.Errorf("virtual ghost module NOT instrumented")
	}
	if vf.CountOps(vir.OpMaskGhost) == 0 {
		t.Errorf("no mask instructions in the VG translation")
	}
}

func TestModuleUnknownFunction(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	mod, err := k.LoadModule(buildCounterModule())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunModuleFunc(mod, "no_such_fn"); err == nil {
		t.Errorf("unknown module function accepted")
	}
}

func TestModuleKlogIntrinsics(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	m := vir.NewModule("logger")
	b := vir.NewFunction("say_hi", 0)
	b.Call("klog_acc", vir.Imm(0x6f6c6c6568)) // "hello"
	b.Call("klog_flush")
	b.Ret(vir.Imm(0))
	if err := m.AddFunc(b.Fn()); err != nil {
		t.Fatal(err)
	}
	mod, err := k.LoadModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunModuleFunc(mod, "say_hi"); err != nil {
		t.Fatal(err)
	}
	if !k.Console().Contains("hello") {
		t.Errorf("console: %v", k.Console().Lines())
	}
}

func TestModuleUnresolvedSymbol(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	m := vir.NewModule("bad")
	b := vir.NewFunction("call_missing", 0)
	b.Ret(b.Call("definitely_not_a_kernel_symbol"))
	if err := m.AddFunc(b.Fn()); err != nil {
		t.Fatal(err)
	}
	mod, err := k.LoadModule(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.RunModuleFunc(mod, "call_missing")
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("unresolved symbol: %v", err)
	}
}

func TestModuleCurPidIntrinsic(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	m := vir.NewModule("who")
	b := vir.NewFunction("whoami", 0)
	b.Ret(b.Call("cur_pid"))
	if err := m.AddFunc(b.Fn()); err != nil {
		t.Fatal(err)
	}
	mod, err := k.LoadModule(m)
	if err != nil {
		t.Fatal(err)
	}
	var saw uint64
	if _, err := k.Spawn("host", func(p *Proc) {
		// Run the module from process context (as a syscall handler
		// would).
		p.enterKernel()
		v, err := k.RunModuleFunc(mod, "whoami")
		p.exitKernel()
		if err != nil {
			t.Errorf("whoami: %v", err)
		}
		saw = v
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if saw != 1 {
		t.Errorf("cur_pid = %d", saw)
	}
}

// TestModuleGhostAccessSemantics is the module-level version of the
// headline property: the same IR load of a ghost address returns the
// secret on native and masked noise under Virtual Ghost.
func TestModuleGhostAccessSemantics(t *testing.T) {
	m := vir.NewModule("peek")
	b := vir.NewFunction("peek8", 1)
	b.Ret(b.Load(b.Param(0), 8))
	if err := m.AddFunc(b.Fn()); err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		mod, err := k.LoadModule(m)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		_, err = k.Spawn("victim", func(p *Proc) {
			va, err := p.AllocGM(1)
			if err != nil {
				t.Fatalf("allocgm: %v", err)
			}
			p.Store(uint64(va), 8, 0x1234567890abcdef)
			p.enterKernel()
			v, err := k.RunModuleFunc(mod, "peek8", uint64(va))
			p.exitKernel()
			if err != nil {
				t.Fatalf("[%v] peek: %v", mode, err)
			}
			got = v
		})
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		switch mode {
		case core.ModeNative:
			if got != 0x1234567890abcdef {
				t.Errorf("native module should read the secret, got %#x", got)
			}
		case core.ModeVirtualGhost:
			if got == 0x1234567890abcdef {
				t.Errorf("instrumented module read ghost memory")
			}
		}
	}
}

// --- the kernel's own IR routines -----------------------------------------

func TestKernelCoreModuleRoutines(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		const base = 0xffffff8000100000
		if err := k.KMemset(base, 0xab, 64); err != nil {
			t.Fatalf("[%v] kmemset: %v", mode, err)
		}
		if err := k.KMemset(base+100, 0xab, 64); err != nil {
			t.Fatalf("[%v] kmemset: %v", mode, err)
		}
		eq, err := k.KMemcmp(base, base+100, 64)
		if err != nil || !eq {
			t.Errorf("[%v] identical buffers compare unequal (%v)", mode, err)
		}
		if err := k.KMemset(base+100, 0xac, 1); err != nil {
			t.Fatal(err)
		}
		eq, _ = k.KMemcmp(base, base+100, 64)
		if eq {
			t.Errorf("[%v] differing buffers compare equal", mode)
		}
		c1, err := k.KChecksum(base, 64)
		if err != nil {
			t.Fatal(err)
		}
		c2, _ := k.KChecksum(base+100, 64)
		if c1 == c2 {
			t.Errorf("[%v] checksum collision on differing buffers", mode)
		}
	}
}

func TestKernelCoreModuleIsInstrumentedUnderVG(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	addr, ok := k.CoreModule().Translation.Entry("kmemset")
	if !ok {
		t.Fatal("kmemset not in the translation")
	}
	f, ok := k.HAL.CodeSpace().FuncByAddr(addr)
	if !ok {
		t.Fatal("kmemset not in code space")
	}
	if !f.Sandboxed || !f.Labeled || f.CountOps(vir.OpMaskGhost) == 0 {
		t.Errorf("kernel's own code not instrumented: sandboxed=%v labeled=%v masks=%d",
			f.Sandboxed, f.Labeled, f.CountOps(vir.OpMaskGhost))
	}
	// And the instrumented kernel code cannot reach ghost memory.
	var leaked bool
	if _, err := k.Spawn("victim", func(p *Proc) {
		va, _ := p.AllocGM(1)
		p.Store(uint64(va), 8, 0x5ec5ec5ec)
		// kmemset over the victim's ghost page from kernel context:
		p.enterKernel()
		err := k.KMemset(uint64(va), 0xff, 8)
		p.exitKernel()
		if err != nil {
			t.Fatalf("kmemset: %v", err)
		}
		leaked = p.Load(uint64(va), 8) != 0x5ec5ec5ec
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if leaked {
		t.Errorf("instrumented kernel memset modified ghost memory")
	}
}
