package check

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/vir"
)

// ---------------------------------------------------------------------
// Admitted-module differential: the linked engine vs the reference
// interpreter on corpus files the checker admits. The contract is the
// engine's usual observational equivalence — same return, same error
// strings, bit-identical clock, same memory/port state.
// ---------------------------------------------------------------------

// diffEnv is a minimal vir.Env over a sparse byte map, mirroring the
// vir package's internal test env (which is unexported).
type diffEnv struct {
	mem      map[hw.Virt]byte
	clock    *hw.Clock
	funcs    map[string]*vir.Function
	addrs    map[uint64]*vir.Function
	revAddrs map[string]uint64
	nextAddr uint64
	ports    map[uint16]uint64
}

func newDiffEnv() *diffEnv {
	return &diffEnv{
		mem:      make(map[hw.Virt]byte),
		clock:    &hw.Clock{},
		funcs:    make(map[string]*vir.Function),
		addrs:    make(map[uint64]*vir.Function),
		revAddrs: make(map[string]uint64),
		nextAddr: 0xffffffc000000000,
		ports:    make(map[uint16]uint64),
	}
}

func (e *diffEnv) addFunc(f *vir.Function) {
	a := e.nextAddr
	e.nextAddr += 0x1000
	e.funcs[f.Name] = f
	e.addrs[a] = f
	e.revAddrs[f.Name] = a
}

func (e *diffEnv) Load(addr hw.Virt, size int) (uint64, error) {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(e.mem[addr+hw.Virt(i)])
	}
	return v, nil
}

func (e *diffEnv) Store(addr hw.Virt, size int, v uint64) error {
	for i := 0; i < size; i++ {
		e.mem[addr+hw.Virt(i)] = byte(v >> (8 * i))
	}
	return nil
}

func (e *diffEnv) Memcpy(dst, src hw.Virt, n int) error {
	if n > 1<<16 {
		return errors.New("memcpy too large for test env")
	}
	for i := 0; i < n; i++ {
		e.mem[dst+hw.Virt(i)] = e.mem[src+hw.Virt(i)]
	}
	return nil
}

func (e *diffEnv) Intrinsic(name string, args []uint64) (uint64, error) {
	return 0, errors.New("unknown intrinsic " + name)
}

func (e *diffEnv) FuncByAddr(addr uint64) (*vir.Function, bool) {
	f, ok := e.addrs[addr]
	return f, ok
}

func (e *diffEnv) FuncAddr(name string) (uint64, bool) {
	a, ok := e.revAddrs[name]
	return a, ok
}

func (e *diffEnv) InKernelCode(addr uint64) bool {
	return addr >= 0xffffffc000000000 && addr < 0xffffffd000000000
}

func (e *diffEnv) PortIn(port uint16) (uint64, error)  { return e.ports[port], nil }
func (e *diffEnv) PortOut(port uint16, v uint64) error { e.ports[port] = v; return nil }
func (e *diffEnv) Clock() *hw.Clock                    { return e.clock }

// diffModule runs every function of m under both executors and fails
// on any observable divergence. It returns how many functions returned
// without error under both, so callers can assert the runs got past
// the run-time checks rather than agreeing on an early fault.
func diffModule(t *testing.T, m *vir.Module) (clean int) {
	t.Helper()
	for _, fn := range m.Funcs {
		// Parsed corpus functions carry the label instruction but not
		// the translator's Labeled flag; set it so indirect calls pass
		// the run-time CFI check in both executors.
		fn.Labeled = true
	}

	eng := vir.NewEngine()
	for _, fn := range m.Funcs {
		if fn.NParams > 2 {
			continue
		}
		args := []uint64{0x2000, 5}[:fn.NParams]

		refEnv := newDiffEnv()
		for _, g := range m.Funcs {
			refEnv.addFunc(g)
		}
		rv, rerr := vir.NewInterp(refEnv).Call(fn, args...)

		engEnv := newDiffEnv()
		for _, g := range m.Funcs {
			engEnv.addFunc(g)
		}
		ev, eerr := eng.Call(engEnv, fn, args...)

		if ev != rv {
			t.Errorf("%s: return mismatch: engine %#x, reference %#x", fn.Name, ev, rv)
		}
		refErr, engErr := "", ""
		if rerr != nil {
			refErr = rerr.Error()
		}
		if eerr != nil {
			engErr = eerr.Error()
		}
		if engErr != refErr {
			t.Errorf("%s: error mismatch:\n  engine:    %q\n  reference: %q", fn.Name, engErr, refErr)
		}
		if errors.Is(eerr, vir.ErrStepLimit) != errors.Is(rerr, vir.ErrStepLimit) {
			t.Errorf("%s: ErrStepLimit identity mismatch: engine %v, reference %v", fn.Name, eerr, rerr)
		}
		if ec, rc := engEnv.clock.Cycles(), refEnv.clock.Cycles(); ec != rc {
			t.Errorf("%s: clock mismatch: engine %d cycles, reference %d", fn.Name, ec, rc)
		}
		if !reflect.DeepEqual(engEnv.mem, refEnv.mem) {
			t.Errorf("%s: memory state mismatch: engine %v, reference %v", fn.Name, engEnv.mem, refEnv.mem)
		}
		if !reflect.DeepEqual(engEnv.ports, refEnv.ports) {
			t.Errorf("%s: port state mismatch: engine %v, reference %v", fn.Name, engEnv.ports, refEnv.ports)
		}
		if eerr == nil && rerr == nil {
			clean++
		}
	}
	return clean
}

// TestElisionDifferential runs the admissible corpus files — the
// redundancy-heavy one, whose repeated masks and CFI checks an
// optimizing engine would be tempted to drop, and the clean one — and
// asserts observational equivalence with the reference interpreter.
// Every function in both files must run to a clean return, so the
// comparison covers the checked paths and not just a shared fault.
func TestElisionDifferential(t *testing.T) {
	for _, name := range []string{"redundant.vir", "clean.vir"} {
		m := loadCorpus(t, name)
		if diags := CheckModule(m, kernelCfg()); len(diags) != 0 {
			t.Fatalf("%s should be admissible, got %v", name, diags)
		}
		runnable := 0
		for _, fn := range m.Funcs {
			if fn.NParams <= 2 {
				runnable++
			}
		}
		if clean := diffModule(t, m); clean != runnable || clean == 0 {
			t.Errorf("%s: %d of %d functions returned cleanly, want all", name, clean, runnable)
		}
	}
}
