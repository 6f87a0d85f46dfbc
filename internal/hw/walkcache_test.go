package hw

import "testing"

// cachedFrame resolves va through the walk cache and fails the test on
// error; mapped=false is reported as frame 0.
func cachedFrame(t *testing.T, u *MMU, root Frame, va Virt) (Frame, bool) {
	t.Helper()
	e, ok, err := u.CachedLeaf(root, va)
	if err != nil {
		t.Fatalf("CachedLeaf(%#x): %v", uint64(va), err)
	}
	if !ok {
		return 0, false
	}
	return e.Frame(), true
}

func TestWalkCacheHitReturnsSameLeaf(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f := mapOne(t, m, u, root, va, PTEWrite|PTEUser)

	got, ok := cachedFrame(t, u, root, va)
	if !ok || got != f {
		t.Fatalf("first lookup: got (%d,%v), want (%d,true)", got, ok, f)
	}
	if len(u.cache.walk) != 1 {
		t.Fatalf("walk cache has %d entries, want 1", len(u.cache.walk))
	}
	got, ok = cachedFrame(t, u, root, va+123)
	if !ok || got != f {
		t.Fatalf("cached lookup: got (%d,%v), want (%d,true)", got, ok, f)
	}
}

func TestWalkCacheNegativeNotCached(t *testing.T) {
	_, u, root := testAS(t)
	if _, ok := cachedFrame(t, u, root, 0x400000); ok {
		t.Fatal("unmapped page resolved")
	}
	if len(u.cache.walk) != 0 {
		t.Fatalf("negative walk was cached: %d entries", len(u.cache.walk))
	}
}

func TestWalkCacheRawWritePTEInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if got, _ := cachedFrame(t, u, root, va); got != f1 {
		t.Fatalf("got frame %d, want %d", got, f1)
	}

	// Point the leaf at a different frame through the raw hardware
	// primitive (exactly what a hostile Native kernel can do).
	table, idx, ok, err := u.WalkLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	f2, err := m.AllocFrame(FrameUserData)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RawWritePTE(table, idx, MakePTE(f2, PTEPresent|PTEWrite|PTEUser)); err != nil {
		t.Fatal(err)
	}

	if got, _ := cachedFrame(t, u, root, va); got != f2 {
		t.Fatalf("stale translation survived RawWritePTE: got frame %d, want %d", got, f2)
	}
}

func TestWalkCachePhysicalWriteToTableInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}

	// Clear the leaf PTE with a raw physical store to the (declared)
	// page-table frame, bypassing every MMU primitive.
	table, idx, ok, err := u.WalkLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	if err := m.Write64(table.Addr()+Phys(idx*8), 0); err != nil {
		t.Fatal(err)
	}

	if _, ok := cachedFrame(t, u, root, va); ok {
		t.Fatal("stale translation survived a physical page-table write")
	}
}

func TestWalkCacheZeroFrameInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}
	table, _, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(table); err != nil {
		t.Fatal(err)
	}
	if _, ok := cachedFrame(t, u, root, va); ok {
		t.Fatal("stale translation survived ZeroFrame of its leaf table")
	}
}

func TestWalkCacheFrameBytesInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}
	table, idx, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.FrameBytes(table)
	if err != nil {
		t.Fatal(err)
	}
	// Scribble the leaf PTE through the raw slice.
	for i := 0; i < 8; i++ {
		raw[int(idx)*8+i] = 0
	}
	if _, ok := cachedFrame(t, u, root, va); ok {
		t.Fatal("stale translation survived FrameBytes mutation")
	}
}

func TestWalkCacheInvalidatePageIn(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if got, _ := cachedFrame(t, u, root, va); got != f1 {
		t.Fatal("expected mapping")
	}
	u.InvalidatePageIn(root, va+5) // any address within the page
	if len(u.cache.walk) != 0 {
		t.Fatalf("InvalidatePageIn left %d entries", len(u.cache.walk))
	}
}

// TestWalkCacheNoResurrectionAcrossSetRoot is the FlushTLB/SetRoot
// interaction fix: entries are keyed (root, page) and dropped eagerly,
// so invalidating a mapping while its address space is inactive must
// stick when that root is loaded again.
func TestWalkCacheNoResurrectionAcrossSetRoot(t *testing.T) {
	m, u, root1 := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root1, va, PTEWrite|PTEUser)

	root2, err := m.AllocFrame(FramePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(root2); err != nil {
		t.Fatal(err)
	}

	// Populate the cache for root1, then switch away.
	if got, _ := cachedFrame(t, u, root1, va); got != f1 {
		t.Fatal("expected mapping in root1")
	}
	u.SetRoot(root2)

	// While root1 is inactive, tear down its mapping.
	table, idx, ok, err := u.WalkLeaf(root1, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	if err := u.RawWritePTE(table, idx, 0); err != nil {
		t.Fatal(err)
	}

	// Switching back must not bring the old translation with it.
	u.SetRoot(root1)
	if _, ok := cachedFrame(t, u, root1, va); ok {
		t.Fatal("invalidated translation resurrected by SetRoot")
	}
}

// TestWalkCacheSurvivesSetRoot pins the flip side: entries for *other*
// roots are host-side state, not TLB state, so an address-space switch
// alone must not discard them (that is the point of (root, page) keys).
func TestWalkCacheSurvivesSetRoot(t *testing.T) {
	m, u, root1 := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root1, va, PTEWrite|PTEUser)

	root2, err := m.AllocFrame(FramePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(root2); err != nil {
		t.Fatal(err)
	}
	if got, _ := cachedFrame(t, u, root1, va); got != f1 {
		t.Fatal("expected mapping in root1")
	}
	u.SetRoot(root2)
	if len(u.cache.walk) != 1 {
		t.Fatalf("SetRoot dropped walk-cache entries: %d left, want 1", len(u.cache.walk))
	}
	if got, _ := cachedFrame(t, u, root1, va); got != f1 {
		t.Fatal("cross-AS translation lost after SetRoot")
	}
}

// TestWalkCacheFreedTableFrame covers root/table frame recycling: once
// a page-table frame is freed (or retyped), every cached walk through
// it must die, so a later reallocation of the same frame cannot serve
// stale translations.
func TestWalkCacheFreedTableFrame(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}

	table, _, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(table); err != nil {
		t.Fatal(err)
	}
	if len(u.cache.walk) != 0 {
		t.Fatalf("FreeFrame of a table frame left %d cached walks", len(u.cache.walk))
	}
	if len(u.cache.walkDeps) != 0 {
		t.Fatalf("FreeFrame left %d dependency sets", len(u.cache.walkDeps))
	}
}

func TestWalkCacheSetTypeInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}
	table, _, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetType(table, FrameUserData); err != nil {
		t.Fatal(err)
	}
	if len(u.cache.walk) != 0 {
		t.Fatalf("SetType away from FramePageTable left %d cached walks", len(u.cache.walk))
	}
}

func TestWalkCachePermissionChangeObserved(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f := mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	e, ok, err := u.CachedLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("CachedLeaf: ok=%v err=%v", ok, err)
	}
	if !e.Writable() {
		t.Fatal("expected writable leaf")
	}

	// Downgrade to read-only through the raw primitive.
	table, idx, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RawWritePTE(table, idx, MakePTE(f, PTEPresent|PTEUser)); err != nil {
		t.Fatal(err)
	}
	e, ok, err = u.CachedLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("CachedLeaf after downgrade: ok=%v err=%v", ok, err)
	}
	if e.Writable() {
		t.Fatal("stale writable PTE served after permission downgrade")
	}
}
