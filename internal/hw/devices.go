package hw

import (
	"fmt"
	"sync"
)

// PortHandler receives I/O-port reads and writes. Port I/O is how the
// IOMMU and legacy devices are configured; under Virtual Ghost only the
// SVA VM's checked I/O instructions may reach the port bus.
type PortHandler interface {
	PortIn(port uint16) uint64
	PortOut(port uint16, val uint64)
}

// PortBus routes I/O-port accesses to registered devices.
type PortBus struct {
	handlers map[uint16]PortHandler
}

// NewPortBus creates an empty port bus.
func NewPortBus() *PortBus { return &PortBus{handlers: make(map[uint16]PortHandler)} }

// Register attaches a device to a port range [base, base+n).
func (b *PortBus) Register(base uint16, n int, h PortHandler) {
	for i := 0; i < n; i++ {
		b.handlers[base+uint16(i)] = h
	}
}

// In reads a port; unclaimed ports read as all-ones like real hardware.
func (b *PortBus) In(port uint16) uint64 {
	if h, ok := b.handlers[port]; ok {
		return h.PortIn(port)
	}
	return ^uint64(0)
}

// Out writes a port; writes to unclaimed ports are dropped.
func (b *PortBus) Out(port uint16, val uint64) {
	if h, ok := b.handlers[port]; ok {
		h.PortOut(port, val)
	}
}

// Console is the system log / terminal device. The rootkit's first
// attack exfiltrates stolen data by printing it here, so tests inspect
// the console transcript.
//
// Printf is mutex-guarded, so the transcript may be read from any host
// goroutine. Consumers use Contains, never positional indexing of
// another CPU's output.
type Console struct {
	mu    sync.Mutex
	lines []string
}

// Printf appends a formatted line to the console transcript.
func (c *Console) Printf(format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	c.mu.Lock()
	c.lines = append(c.lines, line)
	c.mu.Unlock()
}

// Lines returns a snapshot of the transcript.
func (c *Console) Lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.lines))
	copy(out, c.lines)
	return out
}

// Contains reports whether any transcript line contains s.
func (c *Console) Contains(s string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.lines {
		if containsStr(l, s) {
			return true
		}
	}
	return false
}

func containsStr(haystack, needle string) bool {
	if len(needle) == 0 {
		return true
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// RNG is the hardware entropy source. It is a deterministic PRNG
// (xorshift*) seeded at machine construction so that experiments are
// reproducible; the trusted randomness *property* the paper cares about
// is that applications read it through the SVA VM's instruction rather
// than through an OS-controlled /dev/random.
type RNG struct {
	state uint64
	// tap, when set, observes every value handed out (record-replay
	// capture). Host-side bookkeeping: costs nothing, changes nothing.
	tap func(uint64)
	// source, when set, overrides the generator: each draw is served
	// from it (modeling an external TRNG whose outputs were recorded)
	// without advancing the internal state. When it reports ok=false the
	// generator falls back to the seeded PRNG.
	source func() (uint64, bool)
}

// NewRNG seeds the generator. A zero seed is remapped to a fixed
// non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// SetTap installs (or, with nil, removes) the draw observer used by the
// record layer to capture entropy consumed during a recorded run.
func (r *RNG) SetTap(fn func(uint64)) { r.tap = fn }

// SetSource installs (or, with nil, removes) the replay override that
// serves recorded draws back in order.
func (r *RNG) SetSource(fn func() (uint64, bool)) { r.source = fn }

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	if r.source != nil {
		if v, ok := r.source(); ok {
			if r.tap != nil {
				r.tap(v)
			}
			return v
		}
	}
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	v := x * 0x2545f4914f6cdd1d
	if r.tap != nil {
		r.tap(v)
	}
	return v
}

// Fill fills b with random bytes.
func (r *RNG) Fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Next()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// TPM models the trusted platform module: it holds a storage key that
// never leaves the chip. Callers can only ask the TPM to unseal or seal
// blobs with that key; the SVA VM uses this to protect its private key
// at rest (paper §4.4).
type TPM struct {
	storageKey [32]byte
}

// NewTPM provisions a TPM whose storage key is derived from the RNG.
func NewTPM(rng *RNG) *TPM {
	t := &TPM{}
	rng.Fill(t.storageKey[:])
	return t
}

// StorageKey returns the sealed-storage root key. Only the SVA VM's key
// manager calls this; it stands in for the TPM's seal/unseal protocol.
func (t *TPM) StorageKey() [32]byte { return t.storageKey }

// Timer produces periodic timer interrupts in virtual time. The kernel
// scheduler polls it at syscall boundaries (the simulation is
// cooperative, so "interrupts" fire at check points).
type Timer struct {
	clock    *Clock
	interval uint64
	next     uint64
}

// NewTimer creates a timer with the given virtual-cycle period.
func NewTimer(clock *Clock, interval uint64) *Timer {
	return &Timer{clock: clock, interval: interval, next: interval}
}

// Fired reports whether the timer has expired since the last call, and
// re-arms it.
func (t *Timer) Fired() bool {
	if t.clock.Cycles() >= t.next {
		t.next = t.clock.Cycles() + t.interval
		return true
	}
	return false
}
