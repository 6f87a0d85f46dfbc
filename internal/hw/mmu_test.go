package hw

import (
	"errors"
	"testing"
	"testing/quick"
)

// testAS builds a machine-less memory+MMU pair with one address space
// rooted at the returned frame.
func testAS(t *testing.T) (*Memory, *MMU, Frame) {
	t.Helper()
	m := NewMemory(256, &Clock{})
	u := NewMMU(m, &Clock{})
	root, err := m.AllocFrame(FramePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(root); err != nil {
		t.Fatal(err)
	}
	u.SetRoot(root)
	return m, u, root
}

// mapOne installs va -> fresh frame with the given flags.
func mapOne(t *testing.T, m *Memory, u *MMU, root Frame, va Virt, flags uint64) Frame {
	t.Helper()
	f, err := m.AllocFrame(FrameUserData)
	if err != nil {
		t.Fatal(err)
	}
	table, idx, err := u.EnsureTables(root, va,
		func() (Frame, error) {
			nf, err := m.AllocFrame(FramePageTable)
			if err != nil {
				return 0, err
			}
			return nf, m.ZeroFrame(nf)
		},
		func(tb Frame, i uint64, e PTE) error { return u.RawWritePTE(tb, i, e) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RawWritePTE(table, idx, MakePTE(f, flags|PTEPresent)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTranslateBasic(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f := mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	p, err := u.Translate(va+123, AccRead, true)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if p != f.Addr()+123 {
		t.Errorf("pa = %#x, want %#x", uint64(p), uint64(f.Addr()+123))
	}
}

func TestTranslateUnmappedFaults(t *testing.T) {
	_, u, _ := testAS(t)
	_, err := u.Translate(0x500000, AccRead, true)
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if fault.VA != 0x500000 {
		t.Errorf("fault VA = %#x", uint64(fault.VA))
	}
}

func TestWriteProtection(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEUser) // read-only
	if _, err := u.Translate(va, AccRead, true); err != nil {
		t.Fatalf("read should succeed: %v", err)
	}
	if _, err := u.Translate(va, AccWrite, true); err == nil {
		t.Errorf("write to read-only page allowed")
	}
}

func TestUserSupervisorSplit(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x600000)
	mapOne(t, m, u, root, va, PTEWrite) // supervisor-only
	if _, err := u.Translate(va, AccRead, true); err == nil {
		t.Errorf("user access to supervisor page allowed")
	}
	if _, err := u.Translate(va, AccRead, false); err != nil {
		t.Errorf("supervisor access refused: %v", err)
	}
}

func TestNoExec(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x700000)
	mapOne(t, m, u, root, va, PTEUser|PTEWrite|PTENoExec)
	if _, err := u.Translate(va, AccExec, true); err == nil {
		t.Errorf("exec of NX page allowed")
	}
}

func TestTLBInvalidation(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f := mapOne(t, m, u, root, va, PTEUser|PTEWrite)
	if _, err := u.Translate(va, AccRead, true); err != nil {
		t.Fatal(err)
	}
	// Remap the page to a different frame behind the TLB's back.
	f2, _ := m.AllocFrame(FrameUserData)
	table, idx, ok, err := u.WalkLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("walk: %v ok=%v", err, ok)
	}
	if err := u.RawWritePTE(table, idx, MakePTE(f2, PTEPresent|PTEUser|PTEWrite)); err != nil {
		t.Fatal(err)
	}
	// Stale TLB still points at the old frame.
	p, _ := u.Translate(va, AccRead, true)
	if FrameOf(p) != f {
		t.Errorf("expected stale translation before invlpg")
	}
	u.InvalidatePage(va)
	p, _ = u.Translate(va, AccRead, true)
	if FrameOf(p) != f2 {
		t.Errorf("stale translation after invlpg: frame %d", FrameOf(p))
	}
}

func TestSetRootFlushesTLB(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEUser|PTEWrite)
	if _, err := u.Translate(va, AccRead, true); err != nil {
		t.Fatal(err)
	}
	// A second empty address space must not inherit translations.
	root2, _ := m.AllocFrame(FramePageTable)
	_ = m.ZeroFrame(root2)
	u.SetRoot(root2)
	if _, err := u.Translate(va, AccRead, true); err == nil {
		t.Errorf("translation leaked across address spaces")
	}
}

// TestTranslationConsistency: for random mapped pages, translation is a
// pure function of (page, frame) — every in-page offset maps to the
// same frame at the right offset.
func TestTranslationConsistency(t *testing.T) {
	m, u, root := testAS(t)
	pages := map[Virt]Frame{}
	for i := 0; i < 16; i++ {
		va := Virt(0x1000000 + i*0x10000)
		pages[va] = mapOne(t, m, u, root, va, PTEUser|PTEWrite)
	}
	fn := func(pick uint8, off uint16) bool {
		i := int(pick) % 16
		va := Virt(0x1000000 + i*0x10000)
		o := Virt(off) % PageSize
		p, err := u.Translate(va+o, AccRead, true)
		if err != nil {
			return false
		}
		return p == pages[va].Addr()+Phys(o)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPTEAccessors(t *testing.T) {
	f := Frame(42)
	e := MakePTE(f, PTEPresent|PTEWrite|PTEUser|PTENoExec)
	if !e.Present() || !e.Writable() || !e.UserOK() || !e.NoExec() {
		t.Errorf("flag accessors wrong: %#x", uint64(e))
	}
	if e.Frame() != f {
		t.Errorf("frame = %d", e.Frame())
	}
}

func TestAddressSpacePartitions(t *testing.T) {
	cases := []struct {
		va             Virt
		user, ghost, k bool
	}{
		{0x400000, true, false, false},
		{UserTop, true, false, false},
		{GhostBase, false, true, false},
		{GhostTop - 1, false, true, false},
		{GhostTop, false, false, true},
		{KernBase + 0x1000, false, false, true},
	}
	for _, c := range cases {
		if IsUser(c.va) != c.user || IsGhost(c.va) != c.ghost || IsKernel(c.va) != c.k {
			t.Errorf("partition of %#x = user%v ghost%v kern%v",
				uint64(c.va), IsUser(c.va), IsGhost(c.va), IsKernel(c.va))
		}
	}
}

// TestGhostEscapeBitInvariant: OR-ing the escape bit into any ghost
// address must yield a kernel address — the property the sandboxing
// pass relies on (paper §5).
func TestGhostEscapeBitInvariant(t *testing.T) {
	fn := func(off uint64) bool {
		va := GhostBase + Virt(off%(uint64(GhostTop-GhostBase)))
		masked := va | GhostEscapeBit
		return IsKernel(masked) && !IsGhost(masked)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCPUCopyAcrossPages: block copies through the CPU must handle
// page-crossing buffers over discontiguous frames.
func TestCPUCopyAcrossPages(t *testing.T) {
	m, u, root := testAS(t)
	cpu := NewCPU(u, &Clock{})
	// Two adjacent pages backed by (likely) non-adjacent frames.
	va := Virt(0x800000)
	mapOne(t, m, u, root, va, PTEUser|PTEWrite)
	mapOne(t, m, u, root, va+PageSize, PTEUser|PTEWrite)
	cpu.Regs.Priv = User
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	start := va + PageSize - 100 // straddles the boundary
	if err := cpu.CopyToVirt(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := cpu.CopyFromVirtInto(start, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

// TestCPUCopyFaultsAtBoundary: a copy that runs off the mapped region
// reports a fault naming the faulting page.
func TestCPUCopyFaultsAtBoundary(t *testing.T) {
	m, u, root := testAS(t)
	cpu := NewCPU(u, &Clock{})
	va := Virt(0x900000)
	mapOne(t, m, u, root, va, PTEUser|PTEWrite)
	cpu.Regs.Priv = User
	err := cpu.CopyToVirt(va+PageSize-10, make([]byte, 100))
	var f *Fault
	if !errorsAsFault(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if PageOf(f.VA) != va+PageSize {
		t.Errorf("fault at %#x, want the next page", uint64(f.VA))
	}
}

func errorsAsFault(err error, target **Fault) bool {
	for err != nil {
		if f, ok := err.(*Fault); ok {
			*target = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestSupervisorIgnoresUserBit: kernel-privilege accesses reach
// supervisor-only pages; user accesses do not (already covered) and
// both respect write protection.
func TestSupervisorRespectsWriteProtect(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0xa00000)
	mapOne(t, m, u, root, va, 0) // read-only, supervisor-only
	if _, err := u.Translate(va, AccWrite, false); err == nil {
		t.Errorf("supervisor write to read-only page allowed")
	}
	if _, err := u.Translate(va, AccRead, false); err != nil {
		t.Errorf("supervisor read refused: %v", err)
	}
}
