package kernel

// This file is the timer queue driving every network timeout
// (DESIGN.md §19): poll-wait timeouts, per-connection idle auto-close,
// and connect timeouts. It is a binary min-heap keyed (expiry, id) on
// the virtual clock — the same deterministic clock every other cost
// runs on — so arming and firing are replayable.
//
// Determinism: due entries fire in (expiry, id) order, where id is a
// monotonic arm sequence number. Two timers armed for the same instant
// therefore fire in arm order, never map order.
//
// Cancellation is lazy: cancel drops the id from the live set and the
// entry stays in the heap until it reaches the top, where advance and
// nextExpiry discard it.

// timerID names one armed timer; 0 is never a valid id.
type timerID uint64

type wheelEntry struct {
	id     timerID
	expiry uint64 // absolute virtual time
	fn     func()
}

// less orders entries by (expiry, id).
func (e wheelEntry) less(o wheelEntry) bool {
	return e.expiry < o.expiry || (e.expiry == o.expiry && e.id < o.id)
}

type timerWheel struct {
	heap []wheelEntry
	// live holds the ids armed and neither fired nor cancelled; a heap
	// entry whose id is missing here is cancelled.
	live   map[timerID]struct{}
	nextID timerID
	// due is advance's reusable list of entries to fire.
	due []wheelEntry
}

func newTimerWheel() *timerWheel {
	return &timerWheel{live: make(map[timerID]struct{}), nextID: 1}
}

// after arms fn to fire once virtual time reaches now+delay and
// returns the timer's id for cancel. A zero delay still fires strictly
// in the future (the next advance past now).
func (w *timerWheel) after(now, delay uint64, fn func()) timerID {
	id := w.nextID
	w.nextID++
	w.live[id] = struct{}{}
	w.push(wheelEntry{id: id, expiry: now + max(delay, 1), fn: fn})
	return id
}

// cancel disarms a timer. It reports whether the id was still armed
// (false for already-fired, already-cancelled, or invalid ids).
func (w *timerWheel) cancel(id timerID) bool {
	if _, ok := w.live[id]; !ok {
		return false
	}
	delete(w.live, id)
	return true
}

// advance fires every live entry with expiry <= now, in (expiry, id)
// order, and returns how many fired. All due entries leave the heap
// before the first handler runs: a handler-armed timer fires on the
// next advance, and an entry already taken fires even if an earlier
// handler cancels it.
func (w *timerWheel) advance(now uint64) int {
	due := w.due[:0]
	w.due = nil // a handler that re-enters advance gets its own list
	for len(w.heap) > 0 && w.heap[0].expiry <= now {
		e := w.pop()
		if _, ok := w.live[e.id]; ok {
			delete(w.live, e.id)
			due = append(due, e)
		}
	}
	for _, e := range due {
		e.fn()
	}
	n := len(due)
	clear(due) // drop the handlers' closures
	w.due = due[:0]
	return n
}

// nextExpiry returns the earliest live expiry and whether one exists.
func (w *timerWheel) nextExpiry() (uint64, bool) {
	for len(w.heap) > 0 {
		if _, ok := w.live[w.heap[0].id]; ok {
			return w.heap[0].expiry, true
		}
		w.pop()
	}
	return 0, false
}

// pendingCount reports how many timers are armed and not cancelled.
func (w *timerWheel) pendingCount() int { return len(w.live) }

func (w *timerWheel) push(e wheelEntry) {
	w.heap = append(w.heap, e)
	for i := len(w.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !w.heap[i].less(w.heap[parent]) {
			break
		}
		w.heap[i], w.heap[parent] = w.heap[parent], w.heap[i]
		i = parent
	}
}

func (w *timerWheel) pop() wheelEntry {
	top := w.heap[0]
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap[last] = wheelEntry{}
	w.heap = w.heap[:last]
	w.down(0)
	return top
}

// down restores the heap order below i.
func (w *timerWheel) down(i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(w.heap) && w.heap[c].less(w.heap[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		w.heap[i], w.heap[least] = w.heap[least], w.heap[i]
		i = least
	}
}
