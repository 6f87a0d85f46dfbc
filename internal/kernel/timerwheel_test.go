package kernel

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// fireLog arms a wheel entry that appends its label when fired.
func fireLog(w *timerWheel, now, delay uint64, log *[]int, label int) timerID {
	return w.after(now, delay, func() { *log = append(*log, label) })
}

func TestWheelFiresInExpiryOrder(t *testing.T) {
	w := newTimerWheel()
	var log []int
	// Deliberately armed out of order, over five orders of magnitude.
	fireLog(w, 0, 5_000, &log, 2)
	fireLog(w, 0, 1_000, &log, 0)
	fireLog(w, 0, 100_000, &log, 3)
	fireLog(w, 0, 10_000_000, &log, 4)
	fireLog(w, 0, 2_000, &log, 1)
	if got := w.pendingCount(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	if n := w.advance(20_000_000); n != 5 {
		t.Fatalf("advance fired %d, want 5", n)
	}
	for i, v := range log {
		if v != i {
			t.Fatalf("fire order %v", log)
		}
	}
	if w.pendingCount() != 0 {
		t.Errorf("pending after drain = %d", w.pendingCount())
	}
}

func TestWheelSameExpiryBreaksTiesByID(t *testing.T) {
	w := newTimerWheel()
	var log []int
	for i := 0; i < 8; i++ {
		fireLog(w, 0, 3_000, &log, i)
	}
	w.advance(4_000)
	for i, v := range log {
		if v != i {
			t.Fatalf("same-expiry order %v, want arm order", log)
		}
	}
}

func TestWheelIncrementalAdvance(t *testing.T) {
	w := newTimerWheel()
	var log []int
	fireLog(w, 0, 2_000, &log, 1)
	fireLog(w, 0, 70_000, &log, 2)
	if n := w.advance(1_000); n != 0 {
		t.Fatalf("fired %d early", n)
	}
	if n := w.advance(3_000); n != 1 || len(log) != 1 || log[0] != 1 {
		t.Fatalf("first: n=%d log=%v", n, log)
	}
	// Exact expiry: not one cycle early, and on the cycle itself.
	if n := w.advance(69_999); n != 0 {
		t.Fatalf("second entry fired %d early", n)
	}
	if n := w.advance(70_000); n != 1 || log[len(log)-1] != 2 {
		t.Fatalf("second entry: n=%d log=%v", n, log)
	}
}

func TestWheelCancel(t *testing.T) {
	w := newTimerWheel()
	var log []int
	id := fireLog(w, 0, 2_000, &log, 1)
	fireLog(w, 0, 2_000, &log, 2)
	if !w.cancel(id) {
		t.Fatal("cancel of live timer failed")
	}
	if w.cancel(id) {
		t.Fatal("double cancel succeeded")
	}
	if w.pendingCount() != 1 {
		t.Fatalf("pending = %d after cancel", w.pendingCount())
	}
	if n := w.advance(3_000); n != 1 || len(log) != 1 || log[0] != 2 {
		t.Fatalf("canceled timer fired: n=%d log=%v", n, log)
	}
}

func TestWheelOverflowBeyondTopLevel(t *testing.T) {
	w := newTimerWheel()
	var log []int
	// ~2^40 cycles out (about five minutes of virtual time): neither
	// early nor late.
	const far = 1 << 40
	fireLog(w, 0, far, &log, 1)
	if next, ok := w.nextExpiry(); !ok || next != far {
		t.Fatalf("nextExpiry = %d,%v, want %d", next, ok, uint64(far))
	}
	if n := w.advance(far - 1); n != 0 {
		t.Fatalf("far entry fired early")
	}
	if n := w.advance(far); n != 1 {
		t.Fatalf("far entry did not fire at its expiry")
	}
}

func TestWheelNextExpiry(t *testing.T) {
	w := newTimerWheel()
	if _, ok := w.nextExpiry(); ok {
		t.Fatal("empty wheel reported an expiry")
	}
	var log []int
	fireLog(w, 0, 40_000, &log, 1)
	id := fireLog(w, 0, 4_000, &log, 2)
	next, ok := w.nextExpiry()
	if !ok || next != 4_000 {
		t.Fatalf("nextExpiry = %d,%v", next, ok)
	}
	w.cancel(id)
	next, ok = w.nextExpiry()
	if !ok || next != 40_000 {
		t.Fatalf("nextExpiry after cancel = %d,%v", next, ok)
	}
}

func TestWheelZeroDelayFiresNextAdvance(t *testing.T) {
	w := newTimerWheel()
	var log []int
	fireLog(w, 1000, 0, &log, 1)
	if n := w.advance(1000); n != 0 {
		t.Fatalf("zero-delay timer fired at its arm instant")
	}
	if n := w.advance(1001); n != 1 {
		t.Fatalf("zero-delay timer: fired %d", n)
	}
}

// --- differential check against a brute-force oracle -----------------------

// oracleWheel is the timer contract written the obvious way: a slice
// of armed timers, searched and sorted on every operation.
type oracleWheel struct {
	armed  []wheelEntry
	nextID timerID
}

func (o *oracleWheel) after(now, delay uint64, fn func()) timerID {
	o.nextID++
	o.armed = append(o.armed, wheelEntry{id: o.nextID, expiry: now + max(delay, 1), fn: fn})
	return o.nextID
}

func (o *oracleWheel) cancel(id timerID) bool {
	i := slices.IndexFunc(o.armed, func(e wheelEntry) bool { return e.id == id })
	if i < 0 {
		return false
	}
	o.armed = slices.Delete(o.armed, i, i+1)
	return true
}

func (o *oracleWheel) advance(now uint64) int {
	var due []wheelEntry
	o.armed = slices.DeleteFunc(o.armed, func(e wheelEntry) bool {
		if e.expiry <= now {
			due = append(due, e)
			return true
		}
		return false
	})
	// armed is in arm (id) order, so a stable sort on expiry alone
	// yields (expiry, id) order.
	slices.SortStableFunc(due, func(a, b wheelEntry) int { return cmp.Compare(a.expiry, b.expiry) })
	for _, e := range due {
		e.fn()
	}
	return len(due)
}

func (o *oracleWheel) nextExpiry() (uint64, bool) {
	if len(o.armed) == 0 {
		return 0, false
	}
	return slices.MinFunc(o.armed, func(a, b wheelEntry) int { return cmp.Compare(a.expiry, b.expiry) }).expiry, true
}

func (o *oracleWheel) pendingCount() int { return len(o.armed) }

// timers is the contract both sides of the differential implement.
type timers interface {
	after(now, delay uint64, fn func()) timerID
	cancel(id timerID) bool
	advance(now uint64) int
	nextExpiry() (uint64, bool)
	pendingCount() int
}

// timerSide is one implementation under the differential, with the ids
// it handed out (by arm index) and a log of everything its handlers did.
type timerSide struct {
	t   timers
	ids []timerID
	log []string
}

// wheelDiff runs a timerWheel and the oracle through one op sequence.
// What a handler does is a pure function of the seed and its timer's
// arm index, so both sides see the same handlers as long as they agree
// on the arm order.
type wheelDiff struct {
	seed       uint64
	now        uint64
	wheel, ref timerSide
}

var (
	diffDelays = [...]uint64{0, 1, 2, 3, 7, 8, 64, 100, 1000, 1 << 20, 1 << 40}
	diffSteps  = [...]uint64{0, 1, 2, 5, 10, 64, 1000, 1 << 20, 1 << 41}
)

// arm arms a timer on s whose handler logs its firing, then, depending
// on its arm index, cancels an earlier timer (often one collected in the
// same advance) and/or arms another.
func (d *wheelDiff) arm(s *timerSide, delay uint64) {
	idx := len(s.ids)
	s.ids = append(s.ids, 0)
	s.ids[idx] = s.t.after(d.now, delay, func() {
		s.log = append(s.log, fmt.Sprintf("fire %d", idx))
		r := rand.New(rand.NewPCG(d.seed, uint64(idx)))
		if r.IntN(3) == 0 && idx > 0 {
			victim := idx - 1 - r.IntN(min(idx, 4))
			ok := s.t.cancel(s.ids[victim])
			s.log = append(s.log, fmt.Sprintf("cancel %d %v", victim, ok))
		}
		if r.IntN(3) == 0 {
			d.arm(s, diffDelays[r.IntN(len(diffDelays))])
		}
	})
}

// step applies one op to both sides and reports the first divergence.
func (d *wheelDiff) step(op, arg byte) error {
	sides := []*timerSide{&d.wheel, &d.ref}
	var got [2]string
	switch op % 4 {
	case 0:
		for i, s := range sides {
			d.arm(s, diffDelays[int(arg)%len(diffDelays)])
			got[i] = fmt.Sprint("arm id ", s.ids[len(s.ids)-1])
		}
	case 1:
		if len(d.wheel.ids) == 0 {
			return nil
		}
		victim := int(arg) % len(d.wheel.ids)
		for i, s := range sides {
			got[i] = fmt.Sprint("cancel ", s.t.cancel(s.ids[victim]))
		}
	case 2:
		d.now += diffSteps[int(arg)%len(diffSteps)]
		for i, s := range sides {
			n := s.t.advance(d.now)
			got[i] = fmt.Sprintf("advance %d fired %d", d.now, n)
		}
	case 3:
		for i, s := range sides {
			next, ok := s.t.nextExpiry()
			got[i] = fmt.Sprint("next ", next, ok)
		}
	}
	for i, s := range sides {
		got[i] += fmt.Sprint(" pending ", s.t.pendingCount())
	}
	if got[0] != got[1] || !slices.Equal(d.wheel.log, d.ref.log) {
		return fmt.Errorf("op %d arg %d:\n heap:   %s, log %v\n oracle: %s, log %v",
			op%4, arg, got[0], d.wheel.log, got[1], d.ref.log)
	}
	return nil
}

// runWheelDiff plays ops as (op, arg) byte pairs.
func runWheelDiff(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	d := &wheelDiff{seed: seed, wheel: timerSide{t: newTimerWheel()}, ref: timerSide{t: &oracleWheel{}}}
	for i := 0; i+1 < len(ops); i += 2 {
		if err := d.step(ops[i], ops[i+1]); err != nil {
			t.Fatalf("seed %d, step %d: %v", seed, i/2, err)
		}
	}
}

// TestWheelMatchesOracle runs seeded random interleavings of arm,
// cancel, advance and nextExpiry, with handlers that arm and cancel
// timers, and checks fire order, counts, pendingCount and nextExpiry
// against the oracle after every op.
func TestWheelMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(r.UintN(256))
		}
		runWheelDiff(t, seed, ops)
	}
}

func FuzzWheelOracle(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 1, 2, 0, 2, 1, 3, 0})
	f.Add(uint64(2), []byte{0, 6, 0, 6, 0, 6, 1, 1, 3, 0, 2, 6, 3, 0})
	f.Add(uint64(3), []byte{0, 9, 0, 10, 2, 7, 3, 0, 2, 8, 3, 0})
	f.Add(uint64(7), []byte{0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 2, 3, 2, 3, 2, 4, 3, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		runWheelDiff(t, seed, ops)
	})
}
