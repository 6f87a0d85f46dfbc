package vir

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/hw"
)

// This file is the differential harness between the reference
// interpreter (interp.go) and the pre-linked engine (engine.go). The
// engine's contract is observational equivalence: identical return
// values, identical errors (strings included), and a bit-identical
// virtual clock at every observation point. Every test here runs both
// engines over independently constructed environments and asserts the
// observables match.

// epochMemEnv extends memEnv with the CodeEpochs capability so the
// engine's linked-code cache invalidation can be exercised directly.
type epochMemEnv struct {
	*memEnv
	epoch uint64
}

func (e *epochMemEnv) CodeEpoch() uint64 { return e.epoch }

// diffOutcome captures everything observable about one execution.
type diffOutcome struct {
	ret    uint64
	errStr string
	cycles uint64
	mem    map[hw.Virt]byte
	ports  map[uint16]uint64
}

func outcome(ret uint64, err error, env *memEnv) diffOutcome {
	o := diffOutcome{ret: ret, cycles: env.clock.Cycles(), mem: env.mem, ports: env.ports}
	if err != nil {
		o.errStr = err.Error()
	}
	return o
}

// runDiff executes the function produced by setup under the reference
// interpreter and the linked engine (each against its own fresh env)
// and fails the test unless every observable matches. It returns the
// common outcome.
func runDiff(t *testing.T, maxSteps int, setup func(env *memEnv) (*Function, []uint64)) diffOutcome {
	t.Helper()

	refEnv := newMemEnv()
	fn, args := setup(refEnv)
	ip := NewInterp(refEnv)
	if maxSteps > 0 {
		ip.MaxSteps = maxSteps
	}
	rv, rerr := ip.Call(fn, args...)
	ref := outcome(rv, rerr, refEnv)

	engEnv := newMemEnv()
	fn2, args2 := setup(engEnv)
	eng := NewEngine()
	if maxSteps > 0 {
		eng.MaxSteps = maxSteps
	}
	ev, eerr := eng.Call(engEnv, fn2, args2...)
	got := outcome(ev, eerr, engEnv)

	if got.ret != ref.ret {
		t.Errorf("return mismatch: engine %#x, reference %#x", got.ret, ref.ret)
	}
	if got.errStr != ref.errStr {
		t.Errorf("error mismatch:\n  engine:    %q\n  reference: %q", got.errStr, ref.errStr)
	}
	if got.cycles != ref.cycles {
		t.Errorf("clock mismatch: engine %d cycles, reference %d", got.cycles, ref.cycles)
	}
	if !reflect.DeepEqual(got.mem, ref.mem) {
		t.Errorf("memory state mismatch: engine %v, reference %v", got.mem, ref.mem)
	}
	if !reflect.DeepEqual(got.ports, ref.ports) {
		t.Errorf("port state mismatch: engine %v, reference %v", got.ports, ref.ports)
	}
	// The step-limit error must keep its identity, not just its text.
	if errors.Is(rerr, ErrStepLimit) != errors.Is(eerr, ErrStepLimit) {
		t.Errorf("ErrStepLimit identity mismatch: engine %v, reference %v", eerr, rerr)
	}
	return ref
}

func TestEngineDiffArithmeticLoop(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("sumto", 1)
		n := b.Param(0)
		i := b.Mov(Imm(0))
		acc := b.Mov(Imm(0))
		b.Br("loop")
		b.NewBlock("loop")
		c := b.CmpLT(i, n)
		b.CondBr(c, "body", "done")
		b.NewBlock("body")
		b.Assign(acc, b.Add(acc, i))
		b.Assign(i, b.Add(i, Imm(1)))
		b.Br("loop")
		b.NewBlock("done")
		b.Ret(acc)
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{100}
	})
	if o.ret != 4950 {
		t.Errorf("sumto(100) = %d", o.ret)
	}
	if o.cycles == 0 {
		t.Errorf("no cycles charged")
	}
}

func TestEngineDiffAllBinops(t *testing.T) {
	ops := []Opcode{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE}
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
				b := NewFunction("t", 2)
				d := b.Fn().NRegs
				b.Fn().NRegs++
				b.Fn().Entry().Instrs = append(b.Fn().Entry().Instrs,
					Instr{Op: op, Dst: d, A: R(0), B: R(1)},
					Instr{Op: OpRet, A: R(d)},
				)
				env.addFunc(b.Fn())
				return b.Fn(), []uint64{0xdeadbeef, 13}
			})
		})
	}
}

func TestEngineDiffMemoryAndSelect(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("mix", 2)
		v := b.Load(b.Param(0), 8)
		b.Store(b.Param(1), v, 8)
		b.Memcpy(b.Add(b.Param(1), Imm(8)), b.Param(0), Imm(4))
		c := b.CmpEQ(v, Imm(0))
		b.Ret(b.Select(c, Imm(1), b.Load(b.Param(1), 4)))
		env.addFunc(b.Fn())
		_ = env.Store(0x1000, 8, 0x1122334455667788)
		return b.Fn(), []uint64{0x1000, 0x2000}
	})
}

func TestEngineDiffMaskGhost(t *testing.T) {
	for _, addr := range []uint64{
		0x1000,                       // user: identity
		uint64(hw.GhostBase) + 0x10,  // ghost: escape bit
		uint64(SVAInternalBase) + 8,  // SVA internal: zeroed
		uint64(SVAInternalTop) + 0x8, // above the window
	} {
		runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
			f := &Function{Name: "mask", NParams: 1, NRegs: 2, Blocks: []*Block{
				{Name: "entry", Instrs: []Instr{
					{Op: OpMaskGhost, Dst: 1, A: R(0)},
					{Op: OpRet, A: R(1)},
				}},
			}}
			env.addFunc(f)
			return f, []uint64{addr}
		})
	}
}

func TestEngineDiffCallsAndIntrinsics(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("double", 1)
		callee.Ret(callee.Add(callee.Param(0), callee.Param(0)))
		env.addFunc(callee.Fn())
		env.intrinsics["probe"] = func(args []uint64) (uint64, error) {
			return args[0] + 1, nil
		}
		caller := NewFunction("main", 0)
		a := caller.Call("double", Imm(20))
		bb := caller.Call("probe", a)
		caller.Ret(bb)
		env.addFunc(caller.Fn())
		return caller.Fn(), nil
	})
	if o.ret != 41 {
		t.Errorf("main = %d", o.ret)
	}
}

func TestEngineDiffRecursion(t *testing.T) {
	// Direct recursion exercises the memoize-before-lower path of the
	// linker and the engine's frame stacking.
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("fib", 1)
		n := b.Param(0)
		c := b.CmpLT(n, Imm(2))
		b.CondBr(c, "base", "rec")
		b.NewBlock("base")
		b.Ret(n)
		b.NewBlock("rec")
		a := b.Call("fib", b.Sub(n, Imm(1)))
		bb := b.Call("fib", b.Sub(n, Imm(2)))
		b.Ret(b.Add(a, bb))
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{15}
	})
	if o.ret != 610 {
		t.Errorf("fib(15) = %d", o.ret)
	}
}

func TestEngineDiffCallDepthExceeded(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("down", 1)
		b.Ret(b.Call("down", b.Add(b.Param(0), Imm(1))))
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{0}
	})
	if o.errStr == "" {
		t.Fatalf("infinite recursion did not error")
	}
}

func TestEngineDiffArityMismatch(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("two", 2)
		callee.Ret(Imm(0))
		env.addFunc(callee.Fn())
		caller := NewFunction("main", 0)
		caller.Ret(caller.Call("two", Imm(1)))
		env.addFunc(caller.Fn())
		return caller.Fn(), nil
	})
}

func TestEngineDiffIndirectCalls(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("leaf", 1)
		callee.Ret(callee.Mul(callee.Param(0), Imm(3)))
		env.addFunc(callee.Fn())
		caller := NewFunction("main", 0)
		fp := caller.FuncAddr("leaf")
		caller.Ret(caller.CallInd(fp, Imm(7)))
		env.addFunc(caller.Fn())
		return caller.Fn(), nil
	})
	// Indirect call to a non-code address.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		caller := NewFunction("main", 1)
		caller.Ret(caller.CallInd(caller.Param(0)))
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{0x41414141}
	})
}

func TestEngineDiffCFIViolations(t *testing.T) {
	// Unlabeled target inside kernel code space.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		gadget := NewFunction("gadget", 0)
		gadget.Ret(Imm(1))
		addr := env.addFunc(gadget.Fn())
		caller := NewFunction("main", 1)
		caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
			Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
			Instr{Op: OpRet, A: R(0)},
		)
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{addr}
	})
	// Target outside kernel code space.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		caller := NewFunction("main", 1)
		caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
			Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
			Instr{Op: OpRet, A: R(0)},
		)
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{0x1000}
	})
	// Labeled target succeeds.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("ok", 0)
		callee.Fn().Entry().Instrs = append(
			[]Instr{{Op: OpCFILabel, Imm: 0xCF1}},
			[]Instr{{Op: OpRet, A: Imm(9)}}...,
		)
		callee.Fn().Labeled = true
		addr := env.addFunc(callee.Fn())
		caller := NewFunction("main", 1)
		caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
			Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
			Instr{Op: OpRet, A: R(0)},
		)
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{addr}
	})
}

func TestEngineDiffCorruptReturn(t *testing.T) {
	// Plain ret pivots to the gadget (the ROP case).
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		env.intrinsics["mark"] = func([]uint64) (uint64, error) { return 0, nil }
		gadget := NewFunction("gadget", 0)
		gadget.Call("mark")
		gadget.Ret(Imm(0))
		gAddr := env.addFunc(gadget.Fn())
		vuln := NewFunction("vuln", 1)
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Ret(Imm(0))
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{gAddr}
	})
	// cfi.ret blocks the pivot to non-code space.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		gadget := NewFunction("gadget", 0)
		gadget.Ret(Imm(0))
		env.funcs[gadget.Fn().Name] = gadget.Fn()
		env.addrs[0x41410000] = gadget.Fn()
		vuln := NewFunction("vuln", 1)
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Fn().Entry().Instrs = append(vuln.Fn().Entry().Instrs,
			Instr{Op: OpCFIRet, A: Imm(0)})
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{0x41410000}
	})
	// Pivot to a gadget that expects arguments.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		gadget := NewFunction("gadget", 2)
		gadget.Ret(Imm(0))
		gAddr := env.addFunc(gadget.Fn())
		vuln := NewFunction("vuln", 1)
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Ret(Imm(0))
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{gAddr}
	})
}

func TestEngineDiffFellOffBlock(t *testing.T) {
	// The verifier rejects fallthrough blocks, but the engines must
	// still agree on unverified IR.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		f := &Function{Name: "off", NRegs: 1, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{{Op: OpConst, Dst: 0, Imm: 7}}},
		}}
		env.addFunc(f)
		return f, nil
	})
	// Empty block.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		f := &Function{Name: "empty", Blocks: []*Block{{Name: "entry"}}}
		env.addFunc(f)
		return f, nil
	})
}

func TestEngineDiffPortIOAsmFuncAddr(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		env.intrinsics["asm:nop"] = func([]uint64) (uint64, error) { return 0, nil }
		b := NewFunction("io", 0)
		b.PortOut(Imm(0x40), Imm(0x99))
		b.Asm("nop")
		b.Ret(b.PortIn(Imm(0x40)))
		env.addFunc(b.Fn())
		return b.Fn(), nil
	})
	// funcaddr of an unknown symbol errors identically.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("m", 0)
		b.Ret(b.FuncAddr("nonexistent"))
		env.addFunc(b.Fn())
		return b.Fn(), nil
	})
	// Unknown intrinsic errors identically.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("m", 0)
		b.Ret(b.Call("no_such_service"))
		env.addFunc(b.Fn())
		return b.Fn(), nil
	})
}

func TestEngineDiffUnimplementedOpcode(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		f := &Function{Name: "bad", NRegs: 1, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{
				{Op: Opcode(0x77)},
				{Op: OpRet, A: Imm(0)},
			}},
		}}
		env.addFunc(f)
		return f, nil
	})
}

// TestEngineDiffStepLimit pins the hardest equivalence: when the step
// budget expires, both engines must stop with ErrStepLimit at the same
// virtual-clock reading, even when the engine's budget check fires at a
// segment head and the limit lands mid-segment. Sweeping MaxSteps
// across a window wider than any segment forces every possible
// expiry offset within a segment.
func TestEngineDiffStepLimit(t *testing.T) {
	for maxSteps := 1; maxSteps <= 40; maxSteps++ {
		o := runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			// Long pure runs (8 ALU ops per iteration) with branches
			// between them: segments of length 1, 2, and 9.
			b := NewFunction("spin", 1)
			acc := b.Mov(Imm(1))
			b.Br("loop")
			b.NewBlock("loop")
			b.Assign(acc, b.Add(acc, Imm(1)))
			b.Assign(acc, b.Mul(acc, Imm(3)))
			b.Assign(acc, b.Xor(acc, Imm(0x5a)))
			b.Assign(acc, b.Sub(acc, Imm(2)))
			b.Assign(acc, b.Or(acc, Imm(1)))
			b.Assign(acc, b.And(acc, Imm(0xffff)))
			b.Assign(acc, b.Shl(acc, Imm(1)))
			b.Assign(acc, b.Shr(acc, Imm(1)))
			b.Br("loop")
			env.addFunc(b.Fn())
			return b.Fn(), []uint64{0}
		})
		if o.errStr != ErrStepLimit.Error() {
			t.Fatalf("MaxSteps=%d: want step limit, got %q", maxSteps, o.errStr)
		}
	}
}

// TestEngineDiffStepLimitAcrossEnvOps covers budget expiry in segments
// that end with Env-charged operations (loads), where the final
// instruction's cost lives inside the Env and must not be double- or
// under-charged at the limit.
func TestEngineDiffStepLimitAcrossEnvOps(t *testing.T) {
	for maxSteps := 1; maxSteps <= 24; maxSteps++ {
		runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			b := NewFunction("ldspin", 1)
			b.Br("loop")
			b.NewBlock("loop")
			v := b.Load(b.Param(0), 8)
			w := b.Add(v, Imm(1))
			b.Store(b.Param(0), w, 8)
			b.Br("loop")
			env.addFunc(b.Fn())
			return b.Fn(), []uint64{0x1000}
		})
	}
}

// TestStepBudgetPerTopLevelRun covers the Interp.Call fix: a re-entrant
// call (host intrinsic invoking module code through the same engine)
// must share the outer run's step budget instead of refreshing it.
func TestStepBudgetPerTopLevelRun(t *testing.T) {
	// inner burns ~40 steps per invocation; outer loops forever calling
	// the re-entrant intrinsic. With the old per-Call reset, the budget
	// could never expire (each re-entry zeroed the counter).
	build := func(env *memEnv) (*Function, *Function) {
		inner := NewFunction("inner", 0)
		i := inner.Mov(Imm(0))
		inner.Br("loop")
		inner.NewBlock("loop")
		c := inner.CmpLT(i, Imm(10))
		inner.CondBr(c, "body", "done")
		inner.NewBlock("body")
		inner.Assign(i, inner.Add(i, Imm(1)))
		inner.Br("loop")
		inner.NewBlock("done")
		inner.Ret(i)
		env.addFunc(inner.Fn())

		outer := NewFunction("outer", 0)
		outer.Br("loop")
		outer.NewBlock("loop")
		outer.Call("reenter")
		outer.Br("loop")
		env.addFunc(outer.Fn())
		return inner.Fn(), outer.Fn()
	}

	t.Run("reference", func(t *testing.T) {
		env := newMemEnv()
		innerFn, outerFn := build(env)
		ip := NewInterp(env)
		ip.MaxSteps = 5000
		env.intrinsics["reenter"] = func([]uint64) (uint64, error) {
			return ip.Call(innerFn)
		}
		if _, err := ip.Call(outerFn); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", err)
		}
		// A fresh top-level run gets a fresh budget.
		if _, err := ip.Call(innerFn); err != nil {
			t.Fatalf("budget did not reset for next top-level run: %v", err)
		}
	})
	t.Run("linked", func(t *testing.T) {
		env := newMemEnv()
		innerFn, outerFn := build(env)
		eng := NewEngine()
		eng.MaxSteps = 5000
		env.intrinsics["reenter"] = func([]uint64) (uint64, error) {
			return eng.Call(env, innerFn)
		}
		if _, err := eng.Call(env, outerFn); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", err)
		}
		if _, err := eng.Call(env, innerFn); err != nil {
			t.Fatalf("budget did not reset for next top-level run: %v", err)
		}
	})
}

// TestEngineEpochInvalidation exercises the linked-code cache rule: a
// symbol that resolved to an intrinsic at link time must re-resolve to
// a real function after the code space's bindings change, provided the
// Env reports a new epoch.
func TestEngineEpochInvalidation(t *testing.T) {
	inner := newMemEnv()
	env := &epochMemEnv{memEnv: inner, epoch: 1}
	inner.intrinsics["helper"] = func([]uint64) (uint64, error) { return 1, nil }

	caller := NewFunction("main", 0)
	caller.Ret(caller.Call("helper"))
	inner.addFunc(caller.Fn())

	eng := NewEngine()
	if got, err := eng.Call(env, caller.Fn()); err != nil || got != 1 {
		t.Fatalf("before binding: got %d, %v", got, err)
	}

	// Bind "helper" in code space. Without an epoch bump the stale
	// linked code legitimately keeps hitting the intrinsic.
	helper := NewFunction("helper", 0)
	helper.Ret(Imm(2))
	inner.addFunc(helper.Fn())
	if got, err := eng.Call(env, caller.Fn()); err != nil || got != 1 {
		t.Fatalf("stale epoch should keep the old linkage: got %d, %v", got, err)
	}

	env.epoch++
	if got, err := eng.Call(env, caller.Fn()); err != nil || got != 2 {
		t.Fatalf("after epoch bump: got %d, %v", got, err)
	}

	// And the reference interpreter agrees with the post-bump result.
	if got, err := NewInterp(env).Call(caller.Fn()); err != nil || got != 2 {
		t.Fatalf("reference: got %d, %v", got, err)
	}
}

// TestEngineZeroAllocSteadyState asserts the acceptance criterion that
// the execution loop itself performs no host allocations once warm:
// loops, direct calls, and intrinsic dispatch all run from the arena.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	env := newMemEnv()
	env.intrinsics["sink"] = func(args []uint64) (uint64, error) { return args[0], nil }

	leaf := NewFunction("leaf", 2)
	leaf.Ret(leaf.Add(leaf.Param(0), leaf.Param(1)))
	env.addFunc(leaf.Fn())

	b := NewFunction("work", 1)
	n := b.Param(0)
	i := b.Mov(Imm(0))
	acc := b.Mov(Imm(0))
	b.Br("loop")
	b.NewBlock("loop")
	c := b.CmpLT(i, n)
	b.CondBr(c, "body", "done")
	b.NewBlock("body")
	b.Assign(acc, b.Call("leaf", acc, i))
	b.Assign(acc, b.Call("sink", acc))
	b.Assign(i, b.Add(i, Imm(1)))
	b.Br("loop")
	b.NewBlock("done")
	b.Ret(acc)
	env.addFunc(b.Fn())

	eng := NewEngine()
	// Warm: link the functions and grow the arena.
	if _, err := eng.Call(env, b.Fn(), 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.Call(env, b.Fn(), 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Call allocates %v objects/run, want 0", allocs)
	}
}

// TestEngineDiffCorpus runs every function of every checked-in .vir
// module — the adversarial attack corpus, the admission-checker corpus,
// and the example modules — under both engines and asserts identical
// observables. Unverifiable functions are skipped only when *both*
// engines would be undefined on them (bad branch targets); everything
// parseable otherwise runs.
func TestEngineDiffCorpus(t *testing.T) {
	var files []string
	for _, dir := range []string{
		"../attack/testdata",
		"../compiler/check/testdata",
		"../../examples/kernel-module",
	} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.vir"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ParseModule(string(text))
			if err != nil {
				t.Skipf("unparseable: %v", err)
			}
			for _, fn := range m.Funcs {
				// Unverifiable IR can crash the reference interpreter
				// (wild branches, out-of-range registers) rather than
				// error; the malformed-but-runnable cases get dedicated
				// diff tests above.
				if VerifyFunction(fn) != nil || fn.NParams > 2 {
					continue
				}
				fn := fn
				t.Run(fn.Name, func(t *testing.T) {
					args := []uint64{0x1000, 8}[:fn.NParams]
					runDiff(t, 100_000, func(env *memEnv) (*Function, []uint64) {
						// Fresh clone per env so any flag mutation
						// stays private.
						mc := m.Clone()
						labelEntries(mc)
						for _, f := range mc.Funcs {
							env.addFunc(f)
						}
						stubIntrinsics(env)
						return mc.Func(fn.Name), args
					})
				})
			}
		})
	}
}

// labelEntries sets the Labeled flag on every function whose entry
// block opens with a cfi.label, as the translator would. Parsed text
// does not carry the flag, and without it every checked indirect call
// stops at the CFI check, so the code behind it would never run.
func labelEntries(m *Module) {
	for _, f := range m.Funcs {
		if e := f.Entry(); e != nil && len(e.Instrs) > 0 && e.Instrs[0].Op == OpCFILabel {
			f.Labeled = true
		}
	}
}

// stubIntrinsics gives corpus modules the kernel-ish services they
// import, deterministic and side-effect-free.
func stubIntrinsics(env *memEnv) {
	names := []string{"klog_acc", "klog_flush", "cur_pid", "mmap",
		"asm:cli", "asm:sti", "asm:nop", "asm:read_cr3"}
	for _, n := range names {
		n := n
		env.intrinsics[n] = func(args []uint64) (uint64, error) {
			if len(args) > 0 {
				return args[0] ^ uint64(len(n)), nil
			}
			return uint64(len(n)), nil
		}
	}
}

// FuzzEngineDifferential feeds arbitrary module text through the parser
// and, when it verifies, runs every function under both engines and
// requires identical observables. This is the engine's main regression
// net: any divergence the structured tests miss shows up here as a
// one-line reproducer.
func FuzzEngineDifferential(f *testing.F) {
	seeds := []string{
		"module m\nfunc f(0 params) {\nentry:\n  ret 0x0\n}\n",
		"module flow\nfunc loop(1 params) {\nentry:\n  %r1 = const 0x0\n  br head\nhead:\n  %r2 = cmplt %r1, %r0\n  condbr %r2, body, done\nbody:\n  %r1 = add %r1, 0x1\n  br head\ndone:\n  %r3 = select %r2, %r1, 0xff\n  ret %r3\n}\n",
		"module inst\nfunc g(2 params) {\nentry:\n  cfi.label 0xcf1\n  %r2 = maskghost %r0\n  %r3 = load8 [%r2]\n  store8 [%r2], %r3\n  cfi.ret %r3\n}\n",
		"module io\nfunc drv(0 params) {\nentry:\n  %r0 = portin 0x60\n  portout 0x61, %r0\n  %r1 = funcaddr drv\n  %r2 = callind %r1(%r0)\n  ret %r2\n}\n",
		"module c\nfunc rec(1 params) {\nentry:\n  %r1 = call rec(%r0)\n  ret %r1\n}\n",
		"module s\nfunc spin(0 params) {\nentry:\n  br entry\n}\n",
		// Redundant re-masks and a repeated indirect call through one
		// checked register.
		"module r\nfunc h(1 params) {\nentry:\n  cfi.label 0xcf1\n  %r1 = maskghost %r0\n  store8 [%r1], 0x1\n  %r2 = maskghost %r0\n  %r3 = load8 [%r2]\n  %r4 = funcaddr h2\n  %r5 = cfi.callind %r4(%r3)\n  %r6 = cfi.callind %r4(%r5)\n  cfi.ret %r6\n}\nfunc h2(1 params) {\nentry:\n  cfi.label 0xcf1\n  cfi.ret %r0\n}\n",
		// A counted loop: cmp+condbr head, const+ALU body, add+br
		// back-edge, and a call+ret tail.
		"module fu\nfunc leaf(1 params) {\nentry:\n  %r1 = add %r0, 0x1\n  ret %r1\n}\nfunc hot(1 params) {\nentry:\n  %r1 = const 0x0\n  br head\nhead:\n  %r2 = cmplt %r1, %r0\n  condbr %r2, body, done\nbody:\n  %r3 = const 0x3\n  %r4 = mul %r1, %r3\n  %r1 = add %r1, 0x1\n  br head\ndone:\n  %r5 = call leaf(%r1)\n  ret %r5\n}\n",
		// Mask+load and mask+store pairs inside a loop.
		"module fm\nfunc mem(1 params) {\nentry:\n  %r1 = const 0x0\n  br head\nhead:\n  %r2 = cmplt %r1, 0x4\n  condbr %r2, body, done\nbody:\n  %r3 = maskghost %r0\n  store8 [%r3], %r1\n  %r4 = maskghost %r0\n  %r5 = load8 [%r4]\n  %r1 = add %r5, 0x1\n  br head\ndone:\n  ret %r1\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseModule(text)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			if VerifyFunction(fn) != nil || fn.NParams > 2 || fn.NRegs > 1<<16 {
				continue
			}
			fn := fn
			args := []uint64{0x2000, 5}[:fn.NParams]

			runFuzz := func(reference bool) (diffOutcome, error) {
				env := newMemEnv()
				mc := m.Clone()
				labelEntries(mc)
				for _, g := range mc.Funcs {
					env.addFunc(g)
				}
				stubIntrinsics(env)
				target := mc.Func(fn.Name)
				var (
					ret  uint64
					rerr error
				)
				if reference {
					ip := NewInterp(env)
					ip.MaxSteps = 20_000
					ret, rerr = ip.Call(target, args...)
				} else {
					eng := NewEngine()
					eng.MaxSteps = 20_000
					ret, rerr = eng.Call(env, target, args...)
				}
				return outcome(ret, rerr, env), rerr
			}
			ref, rerr := runFuzz(true)
			got, eerr := runFuzz(false)
			if got.ret != ref.ret || got.errStr != ref.errStr || got.cycles != ref.cycles {
				t.Fatalf("engines diverge on %s:\n  reference: ret=%#x err=%q cycles=%d\n  linked:    ret=%#x err=%q cycles=%d\nmodule:\n%s",
					fn.Name, ref.ret, ref.errStr, ref.cycles, got.ret, got.errStr, got.cycles, text)
			}
			if !reflect.DeepEqual(got.mem, ref.mem) || !reflect.DeepEqual(got.ports, ref.ports) {
				t.Fatalf("engines diverge on %s state\nmodule:\n%s", fn.Name, text)
			}
			if errors.Is(rerr, ErrStepLimit) != errors.Is(eerr, ErrStepLimit) {
				t.Fatalf("ErrStepLimit identity diverges on %s\nmodule:\n%s", fn.Name, text)
			}
		}
	})
}

// idiomLoopSource is a counted loop whose body masks one pointer twice
// around a store and a load, with a const+mul pair, an add+br back-edge
// and a call+ret tail: segments that end on an Env access, a branch
// and a call all occur in one function.
const idiomLoopSource = `module idioms
func leaf(1 params) {
entry:
  %r1 = add %r0, 0x1
  ret %r1
}
func hot(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, %r0
  condbr %r2, body, done
body:
  %r3 = const 0x3
  %r4 = mul %r1, %r3
  %r5 = maskghost %r0
  store8 [%r5], %r4
  %r6 = maskghost %r0
  %r7 = load8 [%r6]
  %r1 = add %r1, 0x1
  br head
done:
  %r8 = call leaf(%r1)
  ret %r8
}
`

func addParsedModule(t testing.TB, env *memEnv, source, main string) *Function {
	t.Helper()
	m, err := ParseModule(source)
	if err != nil {
		t.Fatal(err)
	}
	var fn *Function
	for _, g := range m.Funcs {
		env.addFunc(g)
		if g.Name == main {
			fn = g
		}
	}
	if fn == nil {
		t.Fatalf("function %q not in module", main)
	}
	return fn
}

// TestEngineDiffIdiomLoop runs idiomLoopSource to completion under both
// engines.
func TestEngineDiffIdiomLoop(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		return addParsedModule(t, env, idiomLoopSource, "hot"), []uint64{5}
	})
	if o.errStr != "" {
		t.Fatalf("unexpected error: %q", o.errStr)
	}
}

// TestStepLimitExactCycles checks the step-limit slow path inside one
// segment: a straight-line function of five 1-cycle ALU steps and a
// 4-cycle ret. For every budget m that expires mid-segment both engines
// must charge exactly m cycles; with the budget sufficient, exactly the
// full 5*CostALU + CostCall.
func TestStepLimitExactCycles(t *testing.T) {
	build := func() *Function {
		return &Function{Name: "sl", NParams: 0, NRegs: 5, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{
				{Op: OpConst, Dst: 0, Imm: 1},
				{Op: OpConst, Dst: 1, Imm: 2},
				{Op: OpAdd, Dst: 2, A: R(0), B: R(1)},
				{Op: OpConst, Dst: 3, Imm: 4},
				{Op: OpMul, Dst: 4, A: R(2), B: R(3)},
				{Op: OpRet, A: R(4)},
			}},
		}}
	}
	const fullCycles = 5*hw.CostALU + hw.CostCall

	for m := 1; m <= 8; m++ {
		refEnv := newMemEnv()
		refFn := build()
		refEnv.addFunc(refFn)
		ip := NewInterp(refEnv)
		ip.MaxSteps = m
		rv, rerr := ip.Call(refFn)

		engEnv := newMemEnv()
		engFn := build()
		engEnv.addFunc(engFn)
		eng := NewEngine()
		eng.MaxSteps = m
		ev, eerr := eng.Call(engEnv, engFn)

		if m < 6 {
			want := uint64(m) * hw.CostALU
			if !errors.Is(rerr, ErrStepLimit) || !errors.Is(eerr, ErrStepLimit) {
				t.Fatalf("m=%d: want ErrStepLimit from both, got ref=%v eng=%v", m, rerr, eerr)
			}
			if refEnv.clock.Cycles() != want || engEnv.clock.Cycles() != want {
				t.Errorf("m=%d: cycles ref=%d eng=%d, want exactly %d",
					m, refEnv.clock.Cycles(), engEnv.clock.Cycles(), want)
			}
		} else {
			if rerr != nil || eerr != nil {
				t.Fatalf("m=%d: unexpected errors ref=%v eng=%v", m, rerr, eerr)
			}
			if rv != 12 || ev != 12 {
				t.Errorf("m=%d: ret ref=%d eng=%d, want 12", m, rv, ev)
			}
			if refEnv.clock.Cycles() != fullCycles || engEnv.clock.Cycles() != fullCycles {
				t.Errorf("m=%d: cycles ref=%d eng=%d, want exactly %d",
					m, refEnv.clock.Cycles(), engEnv.clock.Cycles(), fullCycles)
			}
		}
	}
}

// TestEngineDiffStepLimitSweep sweeps the step budget across
// idiomLoopSource, forcing expiry at every offset of every segment.
func TestEngineDiffStepLimitSweep(t *testing.T) {
	for maxSteps := 1; maxSteps <= 60; maxSteps++ {
		o := runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			return addParsedModule(t, env, idiomLoopSource, "hot"), []uint64{1 << 40}
		})
		if o.errStr != ErrStepLimit.Error() {
			t.Fatalf("MaxSteps=%d: want step limit, got %q", maxSteps, o.errStr)
		}
	}
}

// TestEngineDiffPolymorphicIndirectCall drives one indirect-call site
// with an alternating target: every call must dispatch to the current
// target.
func TestEngineDiffPolymorphicIndirectCall(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		a := NewFunction("incA", 1)
		a.Ret(a.Add(a.Param(0), Imm(1)))
		addrA := env.addFunc(a.Fn())
		bfn := NewFunction("incB", 1)
		bfn.Ret(bfn.Add(bfn.Param(0), Imm(100)))
		addrB := env.addFunc(bfn.Fn())

		b := NewFunction("poly", 3)
		n := b.Param(0)
		i := b.Mov(Imm(0))
		acc := b.Mov(Imm(0))
		b.Br("loop")
		b.NewBlock("loop")
		c := b.CmpLT(i, n)
		b.CondBr(c, "body", "done")
		b.NewBlock("body")
		odd := b.And(i, Imm(1))
		fp := b.Select(odd, b.Param(1), b.Param(2))
		b.Assign(acc, b.CallInd(fp, acc))
		b.Assign(i, b.Add(i, Imm(1)))
		b.Br("loop")
		b.NewBlock("done")
		b.Ret(acc)
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{10, addrA, addrB}
	})
	// 5 calls through incA (+1) and 5 through incB (+100).
	if o.ret != 5*1+5*100 {
		t.Errorf("poly = %d, want 505", o.ret)
	}
}

// TestEngineDiffCallRetErrorPaths covers a call immediately followed
// by ret: the callee erroring, the budget expiring inside the callee or
// exactly on the ret, and a corrupt-return pivot taken by that ret.
func TestEngineDiffCallRetErrorPaths(t *testing.T) {
	// The callee loops n times, so step budgets can land anywhere
	// inside it.
	const src = `module cr
func spin(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, %r0
  condbr %r2, body, done
body:
  %r1 = add %r1, 0x1
  br head
done:
  ret %r1
}
func hot(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, 0x2
  condbr %r2, body, done
body:
  %r1 = add %r1, 0x1
  br head
done:
  %r3 = call spin(%r0)
  ret %r3
}
`
	for maxSteps := 1; maxSteps <= 50; maxSteps++ {
		runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			return addParsedModule(t, env, src, "hot"), []uint64{6}
		})
	}
	// Callee errors: the ret must not run.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		const errSrc = `module cre
func boom(1 params) {
entry:
  %r1 = callind %r0()
  ret %r1
}
func hot(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, 0x2
  condbr %r2, body, done
body:
  %r1 = add %r1, 0x1
  br head
done:
  %r3 = call boom(%r0)
  ret %r3
}
`
		return addParsedModule(t, env, errSrc, "hot"), []uint64{0x41414141}
	})
	// Corrupt-return pivot taken by the ret after a call.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		env.intrinsics["mark"] = func([]uint64) (uint64, error) { return 0, nil }
		gadget := NewFunction("gadget", 0)
		gadget.Call("mark")
		gadget.Ret(Imm(7))
		gAddr := env.addFunc(gadget.Fn())

		leaf := NewFunction("leaf", 1)
		leaf.Ret(leaf.Param(0))
		env.addFunc(leaf.Fn())

		vuln := NewFunction("vuln", 1)
		i := vuln.Mov(Imm(0))
		vuln.Br("loop")
		vuln.NewBlock("loop")
		c := vuln.CmpLT(i, Imm(2))
		vuln.CondBr(c, "body", "done")
		vuln.NewBlock("body")
		vuln.Assign(i, vuln.Add(i, Imm(1)))
		vuln.Br("loop")
		vuln.NewBlock("done")
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Ret(vuln.Call("leaf", i))
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{gAddr}
	})
}
