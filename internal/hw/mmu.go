package hw

import (
	"errors"
	"fmt"
)

// Virtual address space layout, mirroring the prototype (paper §5):
// user space in the low canonical half, the ghost partition in the
// 512 GiB slice 0xffffff0000000000–0xffffff8000000000, and kernel space
// above it. The sandboxing instrumentation's bit trick relies on this
// alignment: OR-ing bit 39 into any ghost-partition address produces a
// kernel-space address.
const (
	UserBase  Virt = 0x0000000000001000
	UserTop   Virt = 0x00007fffffffffff
	GhostBase Virt = 0xffffff0000000000
	GhostTop  Virt = 0xffffff8000000000 // exclusive
	KernBase  Virt = 0xffffff8000000000
	KernTop   Virt = 0xffffffffffffffff
	// GhostEscapeBit is the bit the sandbox instrumentation ORs into
	// addresses at or above GhostBase (1<<39), moving them out of the
	// ghost partition and into kernel space.
	GhostEscapeBit Virt = 1 << 39
)

// IsUser reports whether v lies in the user partition.
func IsUser(v Virt) bool { return v >= UserBase && v <= UserTop }

// IsGhost reports whether v lies in the ghost partition.
func IsGhost(v Virt) bool { return v >= GhostBase && v < GhostTop }

// IsKernel reports whether v lies in the kernel partition.
func IsKernel(v Virt) bool { return v >= KernBase }

// PTE flag bits (x86-64 style).
const (
	PTEPresent  uint64 = 1 << 0
	PTEWrite    uint64 = 1 << 1
	PTEUser     uint64 = 1 << 2
	PTEAccessed uint64 = 1 << 5
	PTEDirty    uint64 = 1 << 6
	PTENoExec   uint64 = 1 << 63
	pteAddrMask uint64 = 0x000ffffffffff000
)

// PTE is one page-table entry.
type PTE uint64

// Present reports the present bit.
func (e PTE) Present() bool { return uint64(e)&PTEPresent != 0 }

// Writable reports the writable bit.
func (e PTE) Writable() bool { return uint64(e)&PTEWrite != 0 }

// UserOK reports the user-accessible bit.
func (e PTE) UserOK() bool { return uint64(e)&PTEUser != 0 }

// NoExec reports the no-execute bit.
func (e PTE) NoExec() bool { return uint64(e)&PTENoExec != 0 }

// Frame returns the frame the entry points at.
func (e PTE) Frame() Frame { return FrameOf(Phys(uint64(e) & pteAddrMask)) }

// MakePTE builds an entry from a frame and flags.
func MakePTE(f Frame, flags uint64) PTE {
	return PTE(uint64(f.Addr())&pteAddrMask | flags)
}

// Page-table geometry: 4 levels, 9 bits each, 512 entries per table.
const (
	ptLevels  = 4
	ptEntries = 512
)

func ptIndex(v Virt, level int) uint64 {
	// level 3 = root (PML4), level 0 = leaf (PT).
	shift := PageShift + 9*level
	return (uint64(v) >> uint(shift)) & (ptEntries - 1)
}

// Access describes the kind of memory access being translated.
type Access uint8

const (
	// AccRead is a data load.
	AccRead Access = iota
	// AccWrite is a data store.
	AccWrite
	// AccExec is an instruction fetch.
	AccExec
)

func (a Access) String() string {
	switch a {
	case AccRead:
		return "read"
	case AccWrite:
		return "write"
	case AccExec:
		return "exec"
	}
	return "access?"
}

// Fault is a translation fault (page fault or protection violation).
type Fault struct {
	VA     Virt
	Acc    Access
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("hw: page fault at %#x (%s): %s", uint64(f.VA), f.Acc, f.Reason)
}

// ErrNotMapped distinguishes "no translation" faults.
var ErrNotMapped = errors.New("not mapped")

// MMU performs virtual-to-physical translation using 4-level page
// tables that live in simulated physical memory (FramePageTable frames),
// exactly as the real hardware walker does. A per-root TLB caches leaf
// translations; address-space switches flush it.
//
// Alongside the modeled TLB the MMU keeps a host-side *walk cache* of
// completed software walks, keyed by (root, page) so it is valid across
// address-space switches. It is a pure simulator speedup: users of
// CachedLeaf charge virtual time as if they had walked the tables. Its
// correctness contract is strict invalidation — every way a page-table
// byte can change (RawWritePTE, raw physical stores, frame zero/free/
// retype, explicit InvalidatePageIn) drops the affected entries, so a
// cached translation can never outlive the mapping it describes.
type MMU struct {
	mem   *Memory
	clock *Clock
	// cpu is the owning CPU's id, so translation charges land on that
	// CPU's shard during the epoch scheduler's user phase (0 for the
	// boot CPU and bare MMUs).
	cpu  int
	root Frame // current CR3 (root page-table frame); 0 = none
	tlb  map[Virt]tlbEntry

	// cache is the host-side walk cache. It caches completed software
	// walks of *physical memory*, which all CPUs share, so on a
	// multi-CPU machine every MMU points at one cache (per-CPU state is
	// the modeled TLB above, never the walk cache — a stale shared
	// entry would be a simulator bug, while a stale TLB entry is a
	// modeled hardware hazard).
	cache *walkCache
}

// walkCache is the shared host-side cache of completed software walks;
// see the MMU comment above for its strict-invalidation contract.
type walkCache struct {
	walk     map[walkKey]walkEntry
	walkDeps map[Frame]map[walkKey]struct{} // table frame -> entries whose walk traversed it
}

func newWalkCache() *walkCache {
	return &walkCache{
		walk:     make(map[walkKey]walkEntry),
		walkDeps: make(map[Frame]map[walkKey]struct{}),
	}
}

type tlbEntry struct {
	frame Frame
	flags uint64
}

// walkKey identifies a cached software walk: the address space it was
// performed in (root frame, standing in for CR3) and the page.
type walkKey struct {
	root Frame
	page Virt
}

// walkEntry is a completed positive walk: the leaf PTE plus every
// page-table frame the walk read, root included, for dependency-based
// invalidation.
type walkEntry struct {
	pte    PTE
	tables [ptLevels]Frame
}

// NewMMU creates an MMU over the given memory.
func NewMMU(mem *Memory, clock *Clock) *MMU {
	u := &MMU{
		mem:   mem,
		clock: clock,
		tlb:   make(map[Virt]tlbEntry),
		cache: newWalkCache(),
	}
	mem.SetPTWatch(u.invalidateTableFrame)
	return u
}

// NewMMUSharing creates an MMU for an additional CPU of the same
// machine. It has its own TLB (the per-CPU hazard the shootdown
// protocol exists for) but shares the primary MMU's walk cache, since
// that cache describes the shared physical page tables. The primary's
// page-table watch already invalidates the shared cache, so no second
// watch is registered.
func NewMMUSharing(mem *Memory, clock *Clock, primary *MMU) *MMU {
	return &MMU{
		mem:   mem,
		clock: clock,
		tlb:   make(map[Virt]tlbEntry),
		cache: primary.cache,
	}
}

// Root returns the current root page-table frame (CR3).
func (u *MMU) Root() Frame { return u.root }

// SetRoot switches address spaces (loads CR3) and flushes the TLB.
func (u *MMU) SetRoot(f Frame) {
	u.root = f
	u.FlushTLB()
	if u.clock != nil {
		u.clock.ChargeOn(u.cpu, TagTLB, CostTLBFlush)
	}
}

// FlushTLB invalidates all cached translations.
func (u *MMU) FlushTLB() {
	if len(u.tlb) > 0 {
		u.tlb = make(map[Virt]tlbEntry)
	}
}

// InvalidatePage drops one page's cached translation (invlpg). Like
// the real instruction it is strictly local to this CPU's TLB; remote
// TLBs require the shootdown protocol (Machine.ShootdownFrame).
func (u *MMU) InvalidatePage(v Virt) { delete(u.tlb, PageOf(v)) }

// HoldsFrame reports whether this TLB caches any translation that
// resolves to frame f. Machine.staleTranslationCheck uses it to refuse
// freeing or retyping a frame a remote CPU could still reach.
func (u *MMU) HoldsFrame(f Frame) bool {
	for _, te := range u.tlb {
		if te.frame == f {
			return true
		}
	}
	return false
}

// FlushFrame drops every TLB entry that maps frame f — the remote half
// of a TLB shootdown (the invlpg loop run in the IPI handler).
func (u *MMU) FlushFrame(f Frame) {
	for v, te := range u.tlb {
		if te.frame == f {
			delete(u.tlb, v)
		}
	}
}

// Translate walks the page tables for v in the current address space and
// checks permissions for the given access at the given privilege.
// userMode=true means CPL 3. It returns the physical address.
func (u *MMU) Translate(v Virt, acc Access, userMode bool) (Phys, error) {
	page := PageOf(v)
	off := Phys(v - page)
	if te, ok := u.tlb[page]; ok {
		if u.clock != nil {
			u.clock.ChargeOn(u.cpu, TagTLB, CostTLBHit)
		}
		if err := checkPerm(te.flags, acc, userMode, v); err != nil {
			return 0, err
		}
		return te.frame.Addr() + off, nil
	}
	if u.root == 0 {
		return 0, &Fault{VA: v, Acc: acc, Reason: "no address space loaded"}
	}
	if u.clock != nil {
		u.clock.ChargeOn(u.cpu, TagTLB, CostPTWalk)
	}
	table := u.root
	// Accumulate the AND of the user/write permissions along the walk,
	// as x86 does.
	effFlags := PTEWrite | PTEUser
	for level := ptLevels - 1; level >= 1; level-- {
		e, err := u.readPTE(table, ptIndex(v, level))
		if err != nil {
			return 0, err
		}
		if !e.Present() {
			return 0, &Fault{VA: v, Acc: acc, Reason: ErrNotMapped.Error()}
		}
		effFlags &= uint64(e) & (PTEWrite | PTEUser)
		table = e.Frame()
	}
	leaf, err := u.readPTE(table, ptIndex(v, 0))
	if err != nil {
		return 0, err
	}
	if !leaf.Present() {
		return 0, &Fault{VA: v, Acc: acc, Reason: ErrNotMapped.Error()}
	}
	flags := uint64(leaf)&^(PTEWrite|PTEUser) | (uint64(leaf) & effFlags)
	u.tlb[page] = tlbEntry{frame: leaf.Frame(), flags: flags}
	if err := checkPerm(flags, acc, userMode, v); err != nil {
		return 0, err
	}
	return leaf.Frame().Addr() + off, nil
}

func checkPerm(flags uint64, acc Access, userMode bool, v Virt) error {
	if userMode && flags&PTEUser == 0 {
		return &Fault{VA: v, Acc: acc, Reason: "supervisor page accessed from user mode"}
	}
	switch acc {
	case AccWrite:
		if flags&PTEWrite == 0 {
			return &Fault{VA: v, Acc: acc, Reason: "write to read-only page"}
		}
	case AccExec:
		if flags&PTENoExec != 0 {
			return &Fault{VA: v, Acc: acc, Reason: "execute of no-exec page"}
		}
	}
	return nil
}

// readPTE loads entry idx of the page-table page in frame table.
func (u *MMU) readPTE(table Frame, idx uint64) (PTE, error) {
	v, err := u.mem.Read64(table.Addr() + Phys(idx*8))
	if err != nil {
		return 0, err
	}
	return PTE(v), nil
}

// RawWritePTE stores a page-table entry directly into physical memory.
// This is the *hardware* primitive: on a real machine any supervisor
// store can do this, which is exactly why Virtual Ghost makes the SVA VM
// the only code that may reach page-table frames. The SVA layer
// (internal/core) performs its checks and then calls this. A hostile
// kernel on the Native configuration can call it freely.
func (u *MMU) RawWritePTE(table Frame, idx uint64, e PTE) error {
	if idx >= ptEntries {
		return fmt.Errorf("hw: PTE index %d out of range", idx)
	}
	if err := u.mem.Write64(table.Addr()+Phys(idx*8), uint64(e)); err != nil {
		return err
	}
	// Any cached walk that traversed this table may now be stale. This
	// covers tables the kernel never declared as FramePageTable (the
	// Memory-level watch only sees typed frames), so hostile Native
	// kernels cannot bypass it.
	u.invalidateTableFrame(table)
	return nil
}

// ReadPTE reads a page-table entry (used by the SVA checks and by the
// kernel's software page-table walks).
func (u *MMU) ReadPTE(table Frame, idx uint64) (PTE, error) {
	return u.readPTE(table, idx)
}

// WalkLeaf returns the leaf PTE location (table frame + index) for v in
// the address space rooted at root, allocating nothing. It reports
// whether every intermediate level was present.
func (u *MMU) WalkLeaf(root Frame, v Virt) (table Frame, idx uint64, ok bool, err error) {
	table = root
	for level := ptLevels - 1; level >= 1; level-- {
		e, err := u.readPTE(table, ptIndex(v, level))
		if err != nil {
			return 0, 0, false, err
		}
		if !e.Present() {
			return 0, 0, false, nil
		}
		table = e.Frame()
	}
	return table, ptIndex(v, 0), true, nil
}

// EnsureTables walks from root toward the leaf level for v, allocating
// missing intermediate page-table pages with alloc, writing entries via
// write. It returns the leaf table frame and index. alloc and write are
// callbacks so that the caller (kernel via SVA, or a hostile kernel
// directly) controls frame provenance and entry flags.
func (u *MMU) EnsureTables(root Frame, v Virt,
	alloc func() (Frame, error),
	write func(table Frame, idx uint64, e PTE) error,
) (Frame, uint64, error) {
	table := root
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(v, level)
		e, err := u.readPTE(table, idx)
		if err != nil {
			return 0, 0, err
		}
		if !e.Present() {
			nf, err := alloc()
			if err != nil {
				return 0, 0, err
			}
			// Intermediate entries carry permissive flags; real
			// permission bits are enforced at the leaf and by the
			// AND-walk in Translate.
			if err := write(table, idx, MakePTE(nf, PTEPresent|PTEWrite|PTEUser)); err != nil {
				return 0, 0, err
			}
			table = nf
			continue
		}
		table = e.Frame()
	}
	return table, ptIndex(v, 0), nil
}

// CachedLeaf returns the leaf PTE for v in the address space rooted at
// root, serving repeated lookups from the walk cache. ok is false when
// any level of the walk is non-present (negative results are never
// cached). Callers model their own timing: a hit here must still charge
// whatever virtual cost the modeled access would pay, because the cache
// exists only to spare the *host* the O(levels) physical reads.
func (u *MMU) CachedLeaf(root Frame, v Virt) (PTE, bool, error) {
	key := walkKey{root: root, page: PageOf(v)}
	if we, ok := u.cache.walk[key]; ok {
		return we.pte, true, nil
	}
	var tables [ptLevels]Frame
	table := root
	for level := ptLevels - 1; level >= 1; level-- {
		tables[level] = table
		e, err := u.readPTE(table, ptIndex(v, level))
		if err != nil {
			return 0, false, err
		}
		if !e.Present() {
			return 0, false, nil
		}
		table = e.Frame()
	}
	tables[0] = table
	leaf, err := u.readPTE(table, ptIndex(v, 0))
	if err != nil {
		return 0, false, err
	}
	if !leaf.Present() {
		return 0, false, nil
	}
	u.cache.walk[key] = walkEntry{pte: leaf, tables: tables}
	for _, f := range tables {
		deps := u.cache.walkDeps[f]
		if deps == nil {
			deps = make(map[walkKey]struct{})
			u.cache.walkDeps[f] = deps
		}
		deps[key] = struct{}{}
	}
	return leaf, true, nil
}

// InvalidatePageIn drops the cached walk for one page of one address
// space. The SVA layer calls it from its mapping-update operations
// (rawMap/rawUnmap); because the cache is keyed by (root, page) and
// entries are dropped eagerly, switching roots can never resurrect a
// translation invalidated while its address space was inactive.
func (u *MMU) InvalidatePageIn(root Frame, v Virt) {
	u.dropWalk(walkKey{root: root, page: PageOf(v)})
}

// invalidateTableFrame drops every cached walk that traversed the given
// page-table frame. It is registered as the Memory layer's page-table
// watch, so raw physical stores, ZeroFrame, FrameBytes hand-outs,
// SetType and FreeFrame on declared table frames all funnel here.
func (u *MMU) invalidateTableFrame(f Frame) {
	deps := u.cache.walkDeps[f]
	if len(deps) == 0 {
		return
	}
	keys := make([]walkKey, 0, len(deps))
	for k := range deps {
		keys = append(keys, k)
	}
	for _, k := range keys {
		u.dropWalk(k)
	}
}

func (u *MMU) dropWalk(key walkKey) {
	we, ok := u.cache.walk[key]
	if !ok {
		return
	}
	delete(u.cache.walk, key)
	for _, f := range we.tables {
		if deps := u.cache.walkDeps[f]; deps != nil {
			delete(deps, key)
			if len(deps) == 0 {
				delete(u.cache.walkDeps, f)
			}
		}
	}
}
