package compiler

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/compiler/check"
	"repro/internal/hw"
	"repro/internal/vir"
)

// Kernel code space: translated kernel functions are assigned entry
// addresses in this window. The CFI checks mask/validate control
// targets against it.
const (
	KernelCodeBase uint64 = 0xffffffc000000000
	KernelCodeTop  uint64 = 0xffffffd000000000
	// codeStride is the address spacing between function entry points.
	codeStride = 0x1000
)

// ErrInlineAsm is returned when a module containing inline assembly is
// submitted to the trusted translator. Such code is "not even
// expressible" under Virtual Ghost (paper §1): all OS code must go
// through the virtual instruction set.
var ErrInlineAsm = errors.New("compiler: module contains inline assembly; not expressible in the virtual instruction set")

// ErrNotVerifiable is returned when a module fails structural
// verification.
var ErrNotVerifiable = errors.New("compiler: module failed verification")

// ErrNotAdmissible is returned when instrumented code fails the static
// admission checker — i.e. the emitted IR does not provably carry the
// sandbox/CFI invariants. With correct passes this indicates a compiler
// bug; its job is to turn such bugs (or pass bypasses) into refused
// translations instead of silent security holes.
var ErrNotAdmissible = errors.New("compiler: instrumented code failed admission verification")

// Options selects which protections the compiler applies. The Virtual
// Ghost configuration enables everything; the Native baseline compiles
// with nothing enabled (a plain LLVM build of the kernel, as in the
// paper's baseline).
type Options struct {
	// Sandbox enables the load/store/memcpy ghost-masking pass.
	Sandbox bool
	// CFI enables the control-flow-integrity pass.
	CFI bool
	// RejectAsm makes the translator refuse inline assembly.
	RejectAsm bool
	// VerifyAdmission runs the static admission checker
	// (internal/compiler/check) on the instrumented output and refuses
	// the translation unless the sandbox/CFI invariants are proved on
	// the emitted code itself.
	VerifyAdmission bool
}

// VirtualGhostOptions returns the full Virtual Ghost pipeline.
func VirtualGhostOptions() Options {
	return Options{Sandbox: true, CFI: true, RejectAsm: true, VerifyAdmission: true}
}

// NativeOptions returns the uninstrumented baseline pipeline.
func NativeOptions() Options { return Options{} }

// Translation is the result of compiling a module: the (possibly
// instrumented) code, its layout in code space, and a signature over
// the generated code. The SVA VM caches and verifies translations, so
// the OS cannot substitute different code (paper §4.2: the VM
// "caches and signs the translations").
type Translation struct {
	Module    *vir.Module
	Signature [32]byte
	entries   map[string]uint64
	byAddr    map[uint64]*vir.Function
	base, top uint64
	opts      Options
	admitted  bool
}

// CodeSpace hands out entry addresses and resolves them back to
// functions across every translation loaded on one machine. It is the
// simulation's model of the kernel code segment.
type CodeSpace struct {
	next   uint64
	byAddr map[uint64]*vir.Function
	byName map[string]uint64
	// epoch counts binding changes (translations laid out, foreign code
	// planted). Pre-linked execution engines key their code caches on it
	// — the same discipline the memory walk cache applies to page-table
	// mutation.
	epoch uint64
}

// Epoch returns the current code-binding epoch. It moves whenever the
// symbol→address→function bindings can have changed.
func (cs *CodeSpace) Epoch() uint64 { return cs.epoch }

// NewCodeSpace creates an empty kernel code space.
func NewCodeSpace() *CodeSpace {
	return &CodeSpace{
		next:   KernelCodeBase,
		byAddr: make(map[uint64]*vir.Function),
		byName: make(map[string]uint64),
	}
}

// FuncByAddr resolves a code address to the function whose entry it is.
func (cs *CodeSpace) FuncByAddr(addr uint64) (*vir.Function, bool) {
	f, ok := cs.byAddr[addr]
	return f, ok
}

// FuncAddr returns the entry address of a named function.
func (cs *CodeSpace) FuncAddr(name string) (uint64, bool) {
	a, ok := cs.byName[name]
	return a, ok
}

// InKernelCode reports whether addr falls inside the kernel code
// segment.
func (cs *CodeSpace) InKernelCode(addr uint64) bool {
	return addr >= KernelCodeBase && addr < KernelCodeTop
}

// PlantForeign places a function at an address *outside* kernel code
// space. The attack suite uses this to model exploit payloads copied
// into mmap'ed user/ghost memory: the code exists and is reachable by
// an uninstrumented control transfer, but it is exactly what the CFI
// range check rejects.
func (cs *CodeSpace) PlantForeign(addr uint64, f *vir.Function) {
	cs.byAddr[addr] = f
	cs.byName[f.Name] = addr
	cs.epoch++
}

// Translator compiles modules per its Options and lays them out in a
// CodeSpace.
type Translator struct {
	Opts  Options
	Space *CodeSpace
	// Clock, when set, is charged the admission-verification cost so
	// that translation-time work stays on the virtual-cycle model.
	Clock *hw.Clock
}

// NewTranslator builds a translator over a fresh code space.
func NewTranslator(opts Options) *Translator {
	return &Translator{Opts: opts, Space: NewCodeSpace()}
}

// Translate verifies the module, applies the configured instrumentation
// passes to a private clone, assigns code addresses, and signs the
// result. The input module is left untouched.
func (t *Translator) Translate(m *vir.Module) (*Translation, error) {
	if err := vir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotVerifiable, err)
	}
	if t.Opts.RejectAsm && vir.HasAsm(m) {
		return nil, ErrInlineAsm
	}
	code := m.Clone()
	// The instrumentation flags on submitted IR are attacker-controlled
	// bits, not facts: a hostile module author could pre-set Sandboxed/
	// Labeled so the passes skip their work. Clear all translation state
	// on the private clone and instrument from scratch.
	for _, f := range code.Funcs {
		f.Sandboxed = false
		f.Labeled = false
		f.Translated = false
	}
	if t.Opts.Sandbox {
		SandboxModule(code)
	}
	if t.Opts.CFI {
		CFIModule(code)
	}
	admitted := false
	if t.Opts.VerifyAdmission {
		t.ChargeVerify(code)
		if err := check.Verify(code, t.AdmissionConfig()); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotAdmissible, err)
		}
		admitted = true
	}
	tr := &Translation{
		Module:   code,
		entries:  make(map[string]uint64),
		byAddr:   make(map[uint64]*vir.Function),
		opts:     t.Opts,
		admitted: admitted,
	}
	tr.base = t.Space.next
	for _, f := range code.Funcs {
		if _, dup := t.Space.byName[f.Name]; dup {
			return nil, fmt.Errorf("compiler: symbol %q already present in code space", f.Name)
		}
		f.Translated = true
		addr := t.Space.next
		t.Space.next += codeStride
		t.Space.byAddr[addr] = f
		t.Space.byName[f.Name] = addr
		tr.entries[f.Name] = addr
		tr.byAddr[addr] = f
	}
	tr.top = t.Space.next
	t.Space.epoch++
	tr.Signature = sha256.Sum256([]byte(vir.FormatModule(code)))
	return tr, nil
}

// AdmissionConfig is the policy Translate proves instrumented output
// against. Imports are allowed unless the symbol already resolves in
// the code space to an address *outside* the kernel code segment —
// i.e. code smuggled in via CodeSpace.PlantForeign cannot be named as
// a direct-call target, while genuinely unresolved symbols are left to
// the kernel's run-time module linker (intrinsics). I/O stays a
// run-time decision of the VM's checked instructions, so AllowIO is
// nil here; stricter static policies are available to cmd/vircheck
// and tests.
func (t *Translator) AdmissionConfig() check.Config {
	return check.Config{
		Label: KernelCFILabel,
		AllowImport: func(sym string) bool {
			addr, known := t.Space.FuncAddr(sym)
			return !known || t.Space.InKernelCode(addr)
		},
	}
}

// ChargeVerify charges the virtual-cycle cost of admission-verifying m
// (a linear scan, so linear in instruction count) to the translator's
// clock, if one is attached.
func (t *Translator) ChargeVerify(m *vir.Module) {
	if t.Clock == nil {
		return
	}
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	t.Clock.Charge(hw.TagVerify, uint64(n)*hw.CostVerifyPerOp)
}

// Entry returns the code address of a function in this translation.
func (tr *Translation) Entry(name string) (uint64, bool) {
	a, ok := tr.entries[name]
	return a, ok
}

// Verify recomputes the signature and reports whether the code has been
// altered since translation.
func (tr *Translation) Verify() bool {
	return tr.Signature == sha256.Sum256([]byte(vir.FormatModule(tr.Module)))
}

// Instrumented reports whether this translation carries the Virtual
// Ghost protections.
func (tr *Translation) Instrumented() bool {
	return tr.opts.Sandbox && tr.opts.CFI
}

// Admitted reports whether this translation may enter kernel code
// space: either the static admission checker proved the sandbox/CFI
// invariants on the emitted code, or the pipeline declares no
// admission requirement (the native baseline). A translation claiming
// a verifying pipeline without a checker pass is refused by the
// kernel's module loader.
func (tr *Translation) Admitted() bool {
	return tr.admitted || !tr.opts.VerifyAdmission
}
