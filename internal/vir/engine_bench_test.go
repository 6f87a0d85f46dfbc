package vir

import "testing"

// benchWorkload builds a call-heavy loop: the shape dominated by the
// costs the pre-linked engine removes (FindBlock per branch, string
// dispatch and fresh frames per call).
func benchWorkload(env *memEnv) *Function {
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
	b.Assign(acc, b.Xor(acc, Imm(0x9e37)))
	b.Assign(i, b.Add(i, Imm(1)))
	b.Br("loop")
	b.NewBlock("done")
	b.Ret(acc)
	env.addFunc(b.Fn())
	return b.Fn()
}

// BenchmarkEngineCallLoop measures the pre-linked engine on the
// call-heavy loop; compare with BenchmarkInterpCallLoop.
func BenchmarkEngineCallLoop(b *testing.B) {
	env := newMemEnv()
	fn := benchWorkload(env)
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Call(env, fn, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineTracingDisabledZeroAlloc asserts the cost of the tagged
// accounting layer on the engine hot path: with no tracer attached,
// executing pre-linked code — including every per-segment tagged charge
// — performs zero host allocations per call. This is the "tracing
// disabled is free" guarantee: the only disabled-path cost is the nil
// check inside Clock.Charge.
func TestEngineTracingDisabledZeroAlloc(t *testing.T) {
	env := newMemEnv()
	fn := benchWorkload(env)
	eng := NewEngine()
	// Warm up: first call pays one-time linking and frame-pool growth.
	if _, err := eng.Call(env, fn, 200); err != nil {
		t.Fatal(err)
	}
	if env.clock.TracerAttached() {
		t.Fatal("tracer unexpectedly attached")
	}
	before := env.clock.Cycles()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Call(env, fn, 200); err != nil {
			t.Fatal(err)
		}
	})
	if env.clock.Cycles() == before {
		t.Fatal("workload charged no cycles; hot path not exercised")
	}
	if allocs != 0 {
		t.Errorf("engine hot path allocates %v objects/call with tracing disabled; want 0", allocs)
	}
}

// benchMaskSource is a mask-heavy loop: three memory ops per iteration
// through the same pointer, each masked again.
const benchMaskSource = `module bm
func hot(2 params) {
entry:
  %r2 = mov 0x0
  br loop
loop:
  %r3 = cmplt %r2, %r1
  condbr %r3, body, done
body:
  %r4 = maskghost %r0
  store8 [%r4], %r2
  %r5 = maskghost %r0
  %r6 = load8 [%r5]
  %r7 = maskghost %r0
  store8 [%r7], %r6
  %r8 = add %r2, 0x1
  %r2 = mov %r8
  br loop
done:
  ret 0x0
}
`

// BenchmarkEngineMaskLoop measures the linked engine on the mask-heavy
// loop.
func BenchmarkEngineMaskLoop(b *testing.B) {
	m, err := ParseModule(benchMaskSource)
	if err != nil {
		b.Fatal(err)
	}
	fn := m.Funcs[0]
	env := newMemEnv()
	env.addFunc(fn)
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 0x2000, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Call(env, fn, 0x2000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCFISource hammers indirect calls through an unchanged target
// register: four cfi.callind checks per iteration, each a range check,
// a map lookup and a flag test on the host.
const benchCFISource = `module bc
func leaf(1 params) {
entry:
  ret %r0
}
func hot(1 params) {
entry:
  %r1 = funcaddr leaf
  %r2 = mov 0x0
  br loop
loop:
  %r3 = cmplt %r2, %r0
  condbr %r3, body, done
body:
  %r4 = cfi.callind %r1(%r2)
  %r5 = cfi.callind %r1(%r4)
  %r6 = cfi.callind %r1(%r5)
  %r7 = cfi.callind %r1(%r6)
  %r8 = add %r2, 0x1
  %r2 = mov %r8
  br loop
done:
  ret 0x0
}
`

// BenchmarkEngineCFILoop measures the linked engine on the
// indirect-call loop, every call CFI-checked.
func BenchmarkEngineCFILoop(b *testing.B) {
	m, err := ParseModule(benchCFISource)
	if err != nil {
		b.Fatal(err)
	}
	env := newMemEnv()
	var fn *Function
	for _, g := range m.Funcs {
		g.Labeled = true // parsed text lacks the translator's flag
		env.addFunc(g)
		if g.Name == "hot" {
			fn = g
		}
	}
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Call(env, fn, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpCallLoop is the reference interpreter on the same
// workload.
func BenchmarkInterpCallLoop(b *testing.B) {
	env := newMemEnv()
	fn := benchWorkload(env)
	ip := NewInterp(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Call(fn, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
