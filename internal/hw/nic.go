package hw

import "sort"

// NIC models a gigabit Ethernet interface as a pair of packet queues
// with a per-packet latency and a serialization (bandwidth) cost. The
// network experiments (thttpd, ssh transfers, the C10K harness) move
// their bytes through here, so large transfers become NIC-bound —
// reproducing the paper's "negligible reduction for large files" shape.
//
// Receive-side buffering is indexed by destination port: each port gets
// its own bounded queue, so a stack serving tens of thousands of
// connections dequeues in O(1) instead of scanning one shared ring.
// The set of ports with pending packets is kept sorted — that list is
// the NIC's "descriptor ring", and draining it in port order is what
// keeps multi-port delivery deterministic.
//
// Like the disk, the wire is untrusted: the peer helper methods expose
// everything in flight, which is why ghosting applications encrypt
// network payloads.
//
// Frame ownership (DESIGN.md §8): Send hands the payload buffer itself
// to the peer's receive queue — the sender must not touch it again —
// and the receiving stack owns it from Receive on. Frames are never
// mutated after Send, so Snoop, snapshots and the record tap can read
// or keep them. A stack that has consumed a frame may give it back
// with Release; both ends of a cable share one free list, so frames
// circulate from receiver back to sender instead of being reallocated.
type NIC struct {
	clock *Clock
	// ports holds one record per destination port that has ever
	// received a packet: its receive queue, queued bytes and drops.
	// rxPorts lists the ports with a non-empty queue in sorted order;
	// rxCount is the total queued packet count across ports.
	ports   map[uint16]*portQueue
	rxPorts []uint16
	rxCount int
	// nextSeq stamps packets in arrival order across all ports, so
	// Snoop and snapshot images preserve the global arrival sequence
	// even though storage is per-port.
	nextSeq uint64

	// peer, when set, receives transmitted packets (simple two-node
	// link, matching the paper's dedicated GigE network).
	peer *NIC
	// owner is an opaque back-pointer set by whoever drives this NIC
	// (the kernel's net stack), letting the sending side consult the
	// receiver's flow-control state without a hw→kernel dependency.
	owner any

	latencyCycles  uint64
	perByteCycles  float64
	bytesSent      uint64
	bytesReceived  uint64
	packetsDropped uint64
	// portLimit caps each port's queue length; overflow drops the
	// packet and charges the port's drop counter.
	portLimit int

	// recvTap, when set, observes every packet accepted into rx — the
	// record layer's view of external input arriving on the wire. Pure
	// host bookkeeping, charges nothing.
	recvTap func(Packet)

	// frames is the free list of released transmit buffers, shared by
	// both ends of a cable (Connect). Host-side only.
	frames *framePool
}

// framePool holds released frame buffers in two size classes: short
// frames (handshakes, FINs, request lines) and full-MTU ones, so the
// short ones do not pin MTU-sized buffers.
type framePool struct{ short, full [][]byte }

const (
	// shortFrameCap is the capacity of a short-class frame buffer.
	shortFrameCap = 256
	// maxFreeFrames bounds each class's free list (about 7 MB in all):
	// past it, released frames are left to the garbage collector.
	maxFreeFrames = 4096
)

// class returns the free list and buffer capacity for frames of n
// bytes.
func (fp *framePool) class(n int) (*[][]byte, int) {
	if n <= shortFrameCap {
		return &fp.short, shortFrameCap
	}
	return &fp.full, MTU
}

// portQueue is one port's receive state.
type portQueue struct {
	// pkts are the packets delivered and not yet read, in arrival order.
	pkts []rxPacket
	// bytes is the queued payload total — the receive window math in
	// the kernel charges senders against it.
	bytes uint64
	// drops counts packets the per-port queue limit turned away.
	drops uint64
}

// rxPacket is a queued frame plus its global arrival sequence number.
type rxPacket struct {
	pkt Packet
	seq uint64
}

// Packet is one frame on the wire.
type Packet struct {
	Port    uint16 // demultiplexing key (like a UDP/TCP port)
	Payload []byte
}

// MTU is the largest payload a single packet may carry.
const MTU = 1500

// NIC timing at 3.4 GHz: ~50 µs per-packet latency (interrupt +
// protocol cost) and 1 Gbit/s serialization = 8 ns/byte ≈ 27.2
// cycles/byte.
const (
	nicLatencyCycles = 8_000
	nicPerByteCycles = 27.2
)

// defaultPortLimit bounds each port's receive queue. It matches the
// old NIC's global queue limit, so single-stream workloads see the
// same drop behavior as before the per-port split.
const defaultPortLimit = 4096

// NewNIC creates an unconnected NIC.
func NewNIC(clock *Clock) *NIC {
	return &NIC{
		clock:         clock,
		ports:         make(map[uint16]*portQueue),
		latencyCycles: nicLatencyCycles,
		perByteCycles: nicPerByteCycles,
		portLimit:     defaultPortLimit,
		frames:        &framePool{},
	}
}

// Connect links two NICs as the two ends of a dedicated cable.
func Connect(a, b *NIC) {
	a.peer = b
	b.peer = a
	b.frames = a.frames
}

// Peer returns the NIC at the other end of the cable, nil if unplugged.
func (n *NIC) Peer() *NIC { return n.peer }

// SetOwner attaches the driving stack's back-pointer; Owner reads it.
// The NIC never interprets the value.
func (n *NIC) SetOwner(o any) { n.owner = o }
func (n *NIC) Owner() any     { return n.owner }

// SetPortLimit changes the per-port queue cap (test hook and kernel
// tuning knob).
func (n *NIC) SetPortLimit(limit int) { n.portLimit = limit }

// PortLimit reports the per-port queue cap.
func (n *NIC) PortLimit() int { return n.portLimit }

// Frame returns a size-byte transmit buffer (size <= MTU), reusing a
// released frame of its size class when the cable's free list has one.
// Its contents are stale: the caller overwrites all size bytes.
func (n *NIC) Frame(size int) []byte {
	free, c := n.frames.class(size)
	if k := len(*free); k > 0 {
		b := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return b[:size]
	}
	return make([]byte, size, c)
}

// Release returns a frame the receiving stack has finished with to the
// cable's free list. Buffers Frame did not make are ignored, and so is
// everything while a record tap is installed on this NIC: the tap keeps
// the frames it observed.
func (n *NIC) Release(b []byte) {
	free, c := n.frames.class(cap(b))
	if n.recvTap != nil || cap(b) != c || len(*free) >= maxFreeFrames {
		return
	}
	*free = append(*free, b[:0])
}

// Send transmits a packet to the peer, charging latency + serialization
// time. Oversized payloads are rejected by the caller (the kernel's
// network stack segments to MTU). The payload buffer passes to the
// peer without a copy; the caller must not modify it afterwards.
func (n *NIC) Send(p Packet) {
	n.clock.Charge(TagNet, n.latencyCycles+uint64(float64(len(p.Payload))*n.perByteCycles))
	n.bytesSent += uint64(len(p.Payload))
	if n.peer == nil {
		n.packetsDropped++
		return
	}
	n.peer.deliver(p)
}

func (n *NIC) deliver(p Packet) {
	q := n.queue(p.Port)
	if len(q.pkts) >= n.portLimit {
		n.packetsDropped++
		q.drops++
		return
	}
	n.bytesReceived += uint64(len(p.Payload))
	n.enqueue(q, p)
	if n.recvTap != nil {
		n.recvTap(p)
	}
}

// queue returns port's record, creating it on first use.
func (n *NIC) queue(port uint16) *portQueue {
	q := n.ports[port]
	if q == nil {
		q = &portQueue{}
		n.ports[port] = q
	}
	return q
}

// enqueue appends p to q, port p.Port's record, stamping the next
// arrival sequence number. It applies no limit and counts no traffic.
func (n *NIC) enqueue(q *portQueue, p Packet) {
	if len(q.pkts) == 0 {
		n.insertPort(p.Port)
	}
	q.pkts = append(q.pkts, rxPacket{pkt: p, seq: n.nextSeq})
	n.nextSeq++
	n.rxCount++
	q.bytes += uint64(len(p.Payload))
}

// insertPort adds port to the sorted pending list (not already present).
func (n *NIC) insertPort(port uint16) {
	i := sort.Search(len(n.rxPorts), func(i int) bool { return n.rxPorts[i] >= port })
	n.rxPorts = append(n.rxPorts, 0)
	copy(n.rxPorts[i+1:], n.rxPorts[i:])
	n.rxPorts[i] = port
}

// removePort drops port from the sorted pending list.
func (n *NIC) removePort(port uint16) {
	i := sort.Search(len(n.rxPorts), func(i int) bool { return n.rxPorts[i] >= port })
	if i < len(n.rxPorts) && n.rxPorts[i] == port {
		n.rxPorts = append(n.rxPorts[:i], n.rxPorts[i+1:]...)
	}
}

// SetRecvTap installs (or, with nil, removes) the ingress observer used
// by the record layer.
func (n *NIC) SetRecvTap(fn func(Packet)) { n.recvTap = fn }

// Inject delivers a copy of a packet into the receive queue as if it
// had arrived from the wire, charging nothing — the replay layer's
// re-enactment of a recorded external arrival. The caller keeps p.
func (n *NIC) Inject(p Packet) {
	n.deliver(Packet{Port: p.Port, Payload: append([]byte(nil), p.Payload...)})
}

// Receive dequeues the next packet destined for port in arrival order.
// It reports ok=false if none is queued. O(1) amortized: a map lookup
// plus a head pop.
func (n *NIC) Receive(port uint16) (Packet, bool) {
	q := n.ports[port]
	if q == nil || len(q.pkts) == 0 {
		return Packet{}, false
	}
	head := q.pkts[0].pkt
	q.pkts[0] = rxPacket{}
	q.pkts = q.pkts[1:]
	if len(q.pkts) == 0 {
		q.pkts = nil // an idle port keeps no queue storage
		n.removePort(port)
	}
	n.rxCount--
	q.bytes -= uint64(len(head.Payload))
	return head, true
}

// PeekPayloadLen reports the payload length of the head packet queued
// for port, or -1 if the queue is empty. The kernel's receive-window
// check uses it to decide whether the head frame fits without
// dequeuing it.
func (n *NIC) PeekPayloadLen(port uint16) int {
	q := n.rx(port)
	if len(q.pkts) == 0 {
		return -1
	}
	return len(q.pkts[0].pkt.Payload)
}

// rx returns a copy of port's record, zero for a port that never
// received a packet.
func (n *NIC) rx(port uint16) portQueue {
	if q := n.ports[port]; q != nil {
		return *q
	}
	return portQueue{}
}

// Pending reports how many packets are queued for port.
func (n *NIC) Pending(port uint16) int { return len(n.rx(port).pkts) }

// HasPending reports whether any packet is queued on any port — the
// interrupt line the kernel checks instead of scanning every socket.
func (n *NIC) HasPending() bool { return n.rxCount > 0 }

// PendingPorts returns the ports with at least one queued packet, in
// ascending order. The returned slice is a copy; callers may drain
// while iterating it.
func (n *NIC) PendingPorts() []uint16 {
	return append([]uint16(nil), n.rxPorts...)
}

// QueuedBytes reports the payload bytes currently queued for port —
// in-flight data the receiver has not yet consumed, which the sender's
// window math counts against the receive window.
func (n *NIC) QueuedBytes(port uint16) uint64 { return n.rx(port).bytes }

// PortDrops reports how many packets addressed to port were dropped by
// the per-port queue limit.
func (n *NIC) PortDrops(port uint16) uint64 { return n.rx(port).drops }

// Stats returns cumulative byte counters.
func (n *NIC) Stats() (sent, received, dropped uint64) {
	return n.bytesSent, n.bytesReceived, n.packetsDropped
}

// Snoop returns copies of every queued packet in arrival order without
// dequeuing them — the untrusted-wire primitive used by eavesdropping
// tests.
func (n *NIC) Snoop() []Packet {
	all := make([]rxPacket, 0, n.rxCount)
	for _, port := range n.rxPorts {
		all = append(all, n.ports[port].pkts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Packet, len(all))
	for i, p := range all {
		out[i] = Packet{Port: p.pkt.Port, Payload: append([]byte(nil), p.pkt.Payload...)}
	}
	return out
}
