package kernel

import (
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
)

// This file is the network stack: a small reliable, in-order,
// connection-oriented transport ("TCP-lite") over the simulated NIC.
// The two machines of a network experiment are joined by hw.Connect;
// loopback is the NIC connected to itself.
//
// The stack is event-driven (DESIGN.md §19): sockets can be switched
// non-blocking, readiness is exposed through epoll-style poll sets
// (sysPollCreate/sysPollCtl/sysPollWait, level-triggered), and every
// timeout — poll-wait, connect, per-connection idle auto-close — runs
// on a hierarchical timer wheel indexed by the virtual clock
// (timerwheel.go). Flow control is a receive-window cap on each
// connection's buffer: senders see the receiver's remaining window
// (the link is a lossless synchronous pair, so the window is read
// directly rather than carried in ACK segments) and block, shorten, or
// return EAGAIN; un-consumed frames stay queued in the NIC and are
// charged against the window. Delivery is interrupt-driven: Poll is an
// O(1) check of the NIC's pending line plus the wheel's due state, and
// a drain walks only the ports that actually have frames, in sorted
// port order, so multi-port handling is deterministic and
// snapshot safe.

// Wire packet types.
const (
	pktSYN byte = iota + 1
	pktSYNACK
	pktDATA
	pktFIN
	// pktRST rejects a SYN addressed to a port nobody listens on, so a
	// connect racing ahead of the server's listen fails fast with
	// ECONNREFUSED instead of hanging. Backlog-overflow drops stay
	// silent (the TCP shape: overflow relies on retry/timeout).
	pktRST
)

// header: type(1) srcPort(2) dstPort(2).
const netHdrSize = 5

// maxSegment is the data bytes per packet.
const maxSegment = hw.MTU - netHdrSize

// DefaultRecvWindow caps a connection's receive buffer (rx plus frames
// still queued in the NIC). 4 MiB is far above any single legacy
// transfer, so pre-window workloads never hit backpressure and their
// charge sequences are unchanged; the C10K experiments shrink it to
// get thousands of small windows instead.
const DefaultRecvWindow = 4 << 20

// Ephemeral port range defaults (allocPort).
const (
	defaultPortLo = 32768
	defaultPortHi = 65535
)

// Conn is one established connection endpoint.
type Conn struct {
	local, remote uint16
	// remoteIsLocal marks loopback connections (both endpoints on this
	// host); the point-to-point link model needs only this one routing
	// bit.
	remoteIsLocal bool
	established   bool
	peerClosed    bool
	closed        bool
	// timedOut marks a connect that hit its timeout before SYNACK; the
	// socket reports POLLERR and blocking connect returns ETIMEDOUT.
	timedOut bool
	// refused marks a connect whose SYN drew an RST (no listener on the
	// destination port): POLLERR, and blocking connect returns
	// ECONNREFUSED.
	refused bool
	// rxBuf[rxHead:] is the received data the reader has not consumed
	// (see "receive buffers" below).
	rxBuf  []byte
	rxHead int
	// rxWindow caps rxLen() + bytes queued for this port in the NIC.
	rxWindow int
	// idleTimeout, when non-zero, auto-closes the connection after
	// that many cycles without receive activity (keep-alive kill). The
	// armed wheel entry is idleTimer; it re-arms on every delivery.
	idleTimeout uint64
	idleTimer   timerID
	connTimer   timerID
}

// LocalPort returns the connection's local port (tests and stats).
func (c *Conn) LocalPort() uint16 { return c.local }

// Established reports the handshake state (nonblocking connect).
func (c *Conn) Established() bool { return c.established }

// --- receive buffers -------------------------------------------------------
//
// A connection's unread bytes are rxBuf[rxHead:]. The reader copies out
// of it (rxRead) and never keeps a reference, so the backing array is
// reused for the connection's whole life: it rewinds to the start
// whenever the reader drains it. drainPort reserves room for everything
// queued on the port before delivering, so a reply that arrives as many
// frames costs one buffer, not a series of doublings. All of this is
// host-side bookkeeping: the byte count the window math sees (rxLen) is
// exactly the unread bytes, however they are stored.

// rxLen reports the buffered bytes not yet read — the count the
// receive-window math charges.
func (c *Conn) rxLen() int { return len(c.rxBuf) - c.rxHead }

// rxAppend queues received bytes behind the unread ones.
func (c *Conn) rxAppend(data []byte) {
	c.rxReserve(len(data))
	c.rxBuf = append(c.rxBuf, data...)
}

// rxReserve makes room for n more bytes behind the unread ones. When
// the consumed prefix is at least as long as the unread tail and the
// tail plus n fits, the tail slides to the front; otherwise it moves to
// a new array at least twice its size. Either way each move is paid for
// by bytes read or bytes received since the last one, so a long bulk
// transfer that never quite drains stays linear — the unread tail is
// never moved on every read.
func (c *Conn) rxReserve(n int) {
	if len(c.rxBuf)+n <= cap(c.rxBuf) {
		return
	}
	unread := c.rxBuf[c.rxHead:]
	if c.rxHead >= len(unread) && len(unread)+n <= cap(c.rxBuf) {
		c.rxBuf = c.rxBuf[:copy(c.rxBuf, unread)]
	} else {
		c.rxBuf = append(make([]byte, 0, max(len(unread)+n, 2*len(unread))), unread...)
	}
	c.rxHead = 0
}

// rxRead moves up to len(b) unread bytes into b and reports how many.
// A drained buffer rewinds to the start of its backing array.
func (c *Conn) rxRead(b []byte) int {
	n := copy(b, c.rxBuf[c.rxHead:])
	c.rxHead += n
	if c.rxHead == len(c.rxBuf) {
		c.rxBuf, c.rxHead = c.rxBuf[:0], 0
	}
	return n
}

// backlogEntry is one pending SYN on a listener.
type backlogEntry struct {
	srcPort uint16
	local   bool // arrived via loopback
}

// Listener accepts connections on a port.
type Listener struct {
	port    uint16
	backlog []backlogEntry
	// maxBacklog caps pending SYNs; 0 = unlimited (legacy listeners).
	// Overflowing SYNs are dropped and counted — with no retransmit on
	// this link a dropped SYN is a failed connect, which is exactly
	// the admission-control behavior the C10K harness measures.
	maxBacklog int
	synDrops   uint64
}

// SynDrops reports how many SYNs this listener's backlog cap dropped.
func (l *Listener) SynDrops() uint64 { return l.synDrops }

// NetStats are the stack's cumulative drop/timeout counters.
type NetStats struct {
	// SynDrops: SYNs dropped by listener backlog caps.
	SynDrops uint64
	// RefusedSyns: SYNs addressed to a port nobody listens on.
	RefusedSyns uint64
	// LateDataDrops: DATA frames that arrived after their destination
	// connection was closed and removed (the FIN race the pre-refactor
	// stack dropped silently).
	LateDataDrops uint64
	// LateFinDrops: FINs that arrived after the local close.
	LateFinDrops uint64
	// TimeoutKills: connections auto-closed by the idle timeout.
	TimeoutKills uint64
	// TimerFires: wheel entries fired.
	TimerFires uint64
}

// NetStack is one kernel's transport state.
type NetStack struct {
	k         *Kernel
	nic       *hw.NIC
	listeners map[uint16]*Listener
	conns     map[uint16]*Conn // keyed by local port
	nextPort  uint16
	portLo    uint16
	portHi    uint16
	// defWindow is the receive window installed on new connections.
	defWindow int
	wheel     *timerWheel
	stats     NetStats
}

// NewNetStack initializes the stack.
func NewNetStack(k *Kernel) *NetStack {
	ns := &NetStack{
		k:         k,
		nic:       k.M.NIC,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[uint16]*Conn),
		nextPort:  defaultPortLo,
		portLo:    defaultPortLo,
		portHi:    defaultPortHi,
		defWindow: DefaultRecvWindow,
		wheel:     newTimerWheel(k.M.Clock.Cycles()),
	}
	// The NIC's owner back-pointer lets the peer stack's senders read
	// this stack's flow-control state (window math) without a
	// hw→kernel dependency.
	ns.nic.SetOwner(ns)
	return ns
}

// Stats returns the cumulative counters.
func (ns *NetStack) Stats() NetStats { return ns.stats }

// NumConns reports currently-open connections (load tracking).
func (ns *NetStack) NumConns() int { return len(ns.conns) }

// TimersPending reports armed wheel timers (quiescence checks).
func (ns *NetStack) TimersPending() int { return ns.wheel.pendingCount() }

// SetRecvWindow changes the receive window installed on connections
// created after the call. Experiment configuration, host-side.
func (ns *NetStack) SetRecvWindow(n int) {
	if n > 0 {
		ns.defWindow = n
	}
}

// SetEphemeralRange restricts allocPort to [lo, hi] (port-exhaustion
// tests use a tiny range).
func (ns *NetStack) SetEphemeralRange(lo, hi uint16) {
	if lo == 0 || hi < lo {
		return
	}
	ns.portLo, ns.portHi, ns.nextPort = lo, hi, lo
}

// allocPort hands out the next free ephemeral port, scanning the range
// at most once: an exhausted range returns EAGAIN instead of spinning
// forever (ports free on connection close, so churn reuses them).
func (ns *NetStack) allocPort() (uint16, uint64) {
	span := int(ns.portHi) - int(ns.portLo) + 1
	for i := 0; i < span; i++ {
		p := ns.nextPort
		ns.nextPort++
		if ns.nextPort < ns.portLo || ns.nextPort > ns.portHi || ns.nextPort == 0 {
			ns.nextPort = ns.portLo
		}
		if _, used := ns.conns[p]; used {
			continue
		}
		if _, used := ns.listeners[p]; used {
			continue
		}
		return p, 0
	}
	return 0, EAGAIN
}

// send routes one frame: via the loopback interface when the
// destination endpoint is on this host, via the NIC otherwise. The
// frame buffer comes from the NIC's free list; a wire frame belongs to
// the receiver from Send on, a loopback frame is released as soon as
// it has been processed.
func (ns *NetStack) send(typ byte, src, dst uint16, data []byte, toLocal bool) {
	ns.k.HAL.KAccess(workNetPerPacket)
	pl := ns.nic.Frame(netHdrSize + len(data))
	pl[0] = typ
	pl[1], pl[2] = byte(src), byte(src>>8)
	pl[3], pl[4] = byte(dst), byte(dst>>8)
	copy(pl[netHdrSize:], data)
	if toLocal {
		ns.k.M.Clock.Charge(hw.TagNet, loopbackCycles)
		ns.handlePacket(dst, pl, true)
		ns.nic.Release(pl)
		return
	}
	ns.nic.Send(hw.Packet{Port: dst, Payload: pl})
}

// loopbackCycles is the lo-interface per-packet cost.
const loopbackCycles = 2000

// peerStack resolves the stack owning the other end of c: this stack
// for loopback, the linked machine's for wire connections. nil when
// the cable is unplugged.
func (ns *NetStack) peerStack(c *Conn) *NetStack {
	if c.remoteIsLocal {
		return ns
	}
	if p := ns.nic.Peer(); p != nil {
		if o, ok := p.Owner().(*NetStack); ok {
			return o
		}
	}
	return nil
}

// sendRoom computes how many data bytes the receiver's window still
// accepts: its window minus buffered bytes minus frames in flight in
// its NIC queue (headers count conservatively against the window).
// A missing peer connection returns maxSegment — the frame is sent and
// the receiver's late-drop accounting takes it.
func (ns *NetStack) sendRoom(c *Conn) int {
	ps := ns.peerStack(c)
	if ps == nil {
		return maxSegment
	}
	rc, ok := ps.conns[c.remote]
	if !ok || rc.remote != c.local {
		return maxSegment
	}
	room := rc.rxWindow - rc.rxLen()
	if !c.remoteIsLocal {
		room -= int(ps.nic.QueuedBytes(c.remote))
	}
	return room
}

// Poll is the receive-interrupt stand-in the schedulers call between
// dispatches. It is O(1) when nothing is pending: one flag check on
// the NIC plus the wheel's armed count. With work it fires due timers
// and drains pending ports in ascending port order.
func (ns *NetStack) Poll() {
	if ns.nic.HasPending() {
		for _, port := range ns.nic.PendingPorts() {
			ns.drainPort(port)
		}
	}
	if ns.wheel.pendingCount() > 0 {
		if n := ns.wheel.advance(ns.k.M.Clock.Cycles()); n > 0 {
			ns.stats.TimerFires += uint64(n)
			ns.k.HAL.KAccess(n * workTimerFire)
		}
	}
}

// drainPort delivers queued frames for one port until the queue is
// empty or the head frame no longer fits the connection's receive
// window (head-of-line block — in-order delivery means a FIN queued
// behind over-window data waits with it, and the un-consumed bytes
// keep charging the sender's view of the window).
func (ns *NetStack) drainPort(port uint16) {
	if c, ok := ns.conns[port]; ok {
		// One reservation for the whole queue (headers included) instead
		// of growing the buffer frame by frame.
		c.rxReserve(int(ns.nic.QueuedBytes(port)))
	}
	for {
		if c, ok := ns.conns[port]; ok {
			if n := ns.nic.PeekPayloadLen(port); n > netHdrSize && c.rxLen()+(n-netHdrSize) > c.rxWindow {
				return
			}
		}
		pkt, ok := ns.nic.Receive(port)
		if !ok {
			return
		}
		// Late frames — addressed to a port with neither a connection
		// nor a listener — are drained and counted but not charged: the
		// pre-refactor stack never processed them at all (they rotted in
		// the NIC queue), and the legacy experiments' calibrated cycle
		// totals must not move because teardown races are now accounted.
		_, hasConn := ns.conns[port]
		_, hasListener := ns.listeners[port]
		if hasConn || hasListener {
			ns.k.HAL.KAccess(workNetPerPacket)
		}
		ns.handlePacket(port, pkt.Payload, false)
		ns.nic.Release(pkt.Payload)
	}
}

// deliverable reports whether any pending frame could be delivered
// right now (ports without a window-blocked head). The idle-skip
// protocol uses it: window-blocked frames alone must not hold virtual
// time back.
func (ns *NetStack) deliverable() bool {
	if !ns.nic.HasPending() {
		return false
	}
	for _, port := range ns.nic.PendingPorts() {
		c, ok := ns.conns[port]
		if !ok {
			return true // listener, or a late frame a drain will drop
		}
		if n := ns.nic.PeekPayloadLen(port); n <= netHdrSize || c.rxLen()+(n-netHdrSize) <= c.rxWindow {
			return true
		}
	}
	return false
}

// timerNext exposes the wheel's earliest expiry to the idle protocol.
func (ns *NetStack) timerNext() (uint64, bool) { return ns.wheel.nextExpiry() }

// handlePacket is protocol input processing for one frame addressed to
// port (from the wire or the loopback path).
func (ns *NetStack) handlePacket(port uint16, pl []byte, fromLocal bool) {
	if len(pl) < netHdrSize {
		return
	}
	typ := pl[0]
	src := uint16(pl[1]) | uint16(pl[2])<<8
	data := pl[netHdrSize:]
	switch typ {
	case pktSYN:
		l, ok := ns.listeners[port]
		if !ok {
			ns.stats.RefusedSyns++
			ns.send(pktRST, port, src, nil, fromLocal)
			return
		}
		if l.maxBacklog > 0 && len(l.backlog) >= l.maxBacklog {
			l.synDrops++
			ns.stats.SynDrops++
			return
		}
		l.backlog = append(l.backlog, backlogEntry{srcPort: src, local: fromLocal})
	case pktSYNACK:
		if c, ok := ns.conns[port]; ok {
			c.established = true
			c.remote = src
			if c.connTimer != 0 {
				ns.wheel.cancel(c.connTimer)
				c.connTimer = 0
			}
		}
	case pktRST:
		if c, ok := ns.conns[port]; ok && !c.established && !c.closed {
			c.refused = true
			if c.connTimer != 0 {
				ns.wheel.cancel(c.connTimer)
				c.connTimer = 0
			}
		}
	case pktDATA:
		c, ok := ns.conns[port]
		if !ok {
			// The FIN race: data in flight when the local side closed
			// and released the port. Dropped — but accounted, not
			// silent.
			ns.stats.LateDataDrops++
			return
		}
		c.rxAppend(data)
		ns.touch(c)
	case pktFIN:
		c, ok := ns.conns[port]
		if !ok {
			ns.stats.LateFinDrops++
			return
		}
		c.peerClosed = true
		ns.touch(c)
	}
}

// touch re-arms c's idle auto-close timer on receive activity.
func (ns *NetStack) touch(c *Conn) {
	if c.idleTimeout == 0 || c.closed {
		return
	}
	if c.idleTimer != 0 {
		ns.wheel.cancel(c.idleTimer)
	}
	c.idleTimer = ns.wheel.after(ns.k.M.Clock.Cycles(), c.idleTimeout, ns.idleKill(c))
}

// idleKill returns the wheel handler that force-closes an idle
// connection (slowloris defense: a held-open connection with no
// traffic is reaped without any process attending to it).
func (ns *NetStack) idleKill(c *Conn) func() {
	return func() {
		c.idleTimer = 0
		if c.closed {
			return
		}
		ns.stats.TimeoutKills++
		ns.CloseConn(c)
	}
}

// SetIdleTimeout arms (or with 0 disables) the connection's receive
// idle auto-close.
func (ns *NetStack) SetIdleTimeout(c *Conn, cycles uint64) {
	c.idleTimeout = cycles
	if c.idleTimer != 0 {
		ns.wheel.cancel(c.idleTimer)
		c.idleTimer = 0
	}
	if cycles != 0 && !c.closed {
		c.idleTimer = ns.wheel.after(ns.k.M.Clock.Cycles(), cycles, ns.idleKill(c))
	}
}

// Connect dials a port. Blocking mode waits until established, refused
// by an RST (→ ECONNREFUSED), or the optional timeout expires (→
// ETIMEDOUT); nonblocking mode sends the SYN and returns immediately —
// completion surfaces as POLLOUT, refusal or timeout as POLLERR. The
// errno result is 0 on success.
func (ns *NetStack) Connect(p *Proc, dst uint16, toPeer bool, nonblock bool, timeout uint64) (*Conn, uint64) {
	local, e := ns.allocPort()
	if e != 0 {
		return nil, e
	}
	c := &Conn{local: local, remote: dst, remoteIsLocal: !toPeer, rxWindow: ns.defWindow}
	ns.conns[local] = c
	if timeout != 0 {
		c.connTimer = ns.wheel.after(ns.k.M.Clock.Cycles(), timeout, func() {
			c.connTimer = 0
			if !c.established && !c.closed {
				c.timedOut = true
			}
		})
	}
	ns.send(pktSYN, local, dst, nil, !toPeer)
	if nonblock {
		return c, 0
	}
	p.block(func() bool { ns.Poll(); return c.established || c.timedOut || c.refused })
	if c.refused {
		delete(ns.conns, c.local)
		return nil, ECONNREFUSED
	}
	if c.timedOut {
		delete(ns.conns, c.local)
		return nil, ETIMEDOUT
	}
	return c, 0
}

// Accept takes one pending connection off a listener, blocking until
// one arrives. The errno result is 0 on success (EAGAIN: nonblocking
// with an empty backlog, or ephemeral ports exhausted).
func (ns *NetStack) Accept(p *Proc, l *Listener, nonblock bool) (*Conn, uint64) {
	if nonblock && len(l.backlog) == 0 {
		ns.Poll()
		if len(l.backlog) == 0 {
			return nil, EAGAIN
		}
	}
	p.block(func() bool { ns.Poll(); return len(l.backlog) > 0 })
	e := l.backlog[0]
	l.backlog = l.backlog[1:]
	local, errn := ns.allocPort()
	if errn != 0 {
		return nil, errn
	}
	c := &Conn{local: local, remote: e.srcPort, remoteIsLocal: e.local, established: true, rxWindow: ns.defWindow}
	ns.conns[local] = c
	ns.send(pktSYNACK, local, e.srcPort, nil, e.local)
	return c, 0
}

// Send writes data to the connection, segmenting to the MTU and the
// receiver's window. Blocking mode waits for window; nonblocking mode
// returns a short count (or EAGAIN when nothing fit). The int result
// is bytes sent; the errno result is 0, EAGAIN, or EPIPE.
func (ns *NetStack) Send(p *Proc, c *Conn, data []byte, nonblock bool) (int, uint64) {
	sent := 0
	for sent < len(data) {
		if c.closed || c.peerClosed {
			if sent > 0 {
				return sent, 0
			}
			return 0, EPIPE
		}
		room := ns.sendRoom(c)
		if room <= 0 {
			if nonblock {
				if sent > 0 {
					return sent, 0
				}
				return 0, EAGAIN
			}
			p.block(func() bool {
				ns.Poll()
				return ns.sendRoom(c) > 0 || c.peerClosed || c.closed
			})
			continue
		}
		chunk := len(data) - sent
		if chunk > maxSegment {
			chunk = maxSegment
		}
		if chunk > room {
			chunk = room
		}
		ns.send(pktDATA, c.local, c.remote, data[sent:sent+chunk], c.remoteIsLocal)
		sent += chunk
	}
	return sent, 0
}

// Recv copies buffered data into b and reports the byte count,
// blocking until some arrives or the peer closes (then 0 = EOF).
// Buffered data is always drained before EOF is reported, even after
// the peer's FIN. Nonblocking mode returns EAGAIN instead of blocking,
// leaving b untouched.
func (ns *NetStack) Recv(p *Proc, c *Conn, b []byte, nonblock bool) (int, uint64) {
	if c.rxLen() == 0 && nonblock {
		ns.Poll()
		if c.rxLen() == 0 && !c.peerClosed && !c.closed {
			return 0, EAGAIN
		}
	}
	if !nonblock {
		p.block(func() bool { ns.Poll(); return c.rxLen() > 0 || c.peerClosed || c.closed })
	}
	return c.rxRead(b), 0
}

// CloseConn sends FIN, cancels the connection's timers, and releases
// the local port. Idempotent.
func (ns *NetStack) CloseConn(c *Conn) {
	if c.closed {
		return
	}
	c.closed = true
	if c.idleTimer != 0 {
		ns.wheel.cancel(c.idleTimer)
		c.idleTimer = 0
	}
	if c.connTimer != 0 {
		ns.wheel.cancel(c.connTimer)
		c.connTimer = 0
	}
	ns.send(pktFIN, c.local, c.remote, nil, c.remoteIsLocal)
	delete(ns.conns, c.local)
}

// --- socket file objects & syscalls ---------------------------------------

// Socket is the descriptor-level object for the socket syscalls.
type Socket struct {
	ns       *NetStack
	conn     *Conn
	listener *Listener
	// nonblock switches every operation to the EAGAIN discipline.
	nonblock bool
	// timeo is the pending timeout setting (SysSockTimeo before
	// connect = connect timeout; on a connected socket it becomes the
	// idle auto-close timeout directly).
	timeo uint64
}

// The EAGAIN errors are held as interface values so the nonblocking
// fast path returns them without allocating.
var (
	errRecvWouldBlock error = errnoError{EAGAIN, "recv would block"}
	errSendWouldBlock error = errnoError{EAGAIN, "send would block"}
)

func (s *Socket) ReadAt(p *Proc, b []byte, off int64) (int, error) {
	if s.conn == nil {
		return 0, ErrNotReadable
	}
	n, e := s.ns.Recv(p, s.conn, b, s.nonblock)
	if e != 0 {
		return 0, errRecvWouldBlock
	}
	return n, nil
}

func (s *Socket) WriteAt(p *Proc, b []byte, off int64) (int, error) {
	if s.conn == nil {
		return 0, ErrNotWritable
	}
	if s.conn.peerClosed || s.conn.closed {
		return 0, ErrPipeBroken
	}
	n, e := s.ns.Send(p, s.conn, b, s.nonblock)
	switch e {
	case 0:
		return n, nil
	case EPIPE:
		return n, ErrPipeBroken
	default:
		return n, errSendWouldBlock
	}
}

func (s *Socket) Size() int64 { return 0 }

func (s *Socket) Ready() bool {
	if s.listener != nil {
		s.ns.Poll()
		return len(s.listener.backlog) > 0
	}
	if s.conn != nil {
		s.ns.Poll()
		return s.conn.rxLen() > 0 || s.conn.peerClosed || s.conn.closed
	}
	return false
}

func (s *Socket) Close(k *Kernel) error {
	if s.conn != nil {
		s.ns.CloseConn(s.conn)
	}
	if s.listener != nil {
		delete(s.ns.listeners, s.listener.port)
	}
	return nil
}

// sysSocket creates an unbound socket.
func sysSocket(k *Kernel, p *Proc, ic core.IContext) uint64 {
	k.HAL.KAccess(workSocket)
	fd, e := p.allocFD(&Socket{ns: k.Net}, false)
	if e != 0 {
		return errno(e)
	}
	return uint64(fd)
}

func sockOf(p *Proc, fd int) (*Socket, uint64) {
	d, e := p.fd(fd)
	if e != 0 {
		return nil, e
	}
	s, ok := d.Ops.(*Socket)
	if !ok {
		return nil, EINVAL
	}
	return s, 0
}

// sysBind binds a socket to a local port.
func sysBind(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workSocket)
	port := uint16(ic.Arg(1))
	if _, used := k.Net.listeners[port]; used {
		return errno(EEXIST)
	}
	s.listener = &Listener{port: port}
	return 0
}

// sysListen registers the bound port for incoming SYNs. arg1 is the
// backlog cap (0 = unlimited, the legacy behavior): SYNs beyond it are
// dropped and counted, never queued.
func sysListen(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if s.listener == nil {
		return errno(EINVAL)
	}
	k.HAL.KAccess(workSocket)
	s.listener.maxBacklog = int(ic.Arg(1))
	k.Net.listeners[s.listener.port] = s.listener
	return 0
}

// sysAccept blocks for a connection and returns a new socket fd. On a
// nonblocking listener it returns EAGAIN instead of blocking. The
// accepted socket inherits the listener socket's nonblocking mode and
// timeout setting (as its idle auto-close).
func sysAccept(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if s.listener == nil {
		return errno(EINVAL)
	}
	conn, e := k.Net.Accept(p, s.listener, s.nonblock)
	if e != 0 {
		return errno(e)
	}
	ns := &Socket{ns: k.Net, conn: conn, nonblock: s.nonblock}
	if s.timeo != 0 {
		k.Net.SetIdleTimeout(conn, s.timeo)
	}
	fd, e := p.allocFD(ns, false)
	if e != 0 {
		k.Net.CloseConn(conn)
		return errno(e)
	}
	return uint64(fd)
}

// sysConnect dials arg1 as a destination port, blocking until
// established. arg2 selects the host: RemoteHost for the machine on
// the other end of the link, LocalHost (0) for a loopback service. A
// nonblocking socket returns immediately after the SYN; completion is
// POLLOUT, a timeout (SysSockTimeo armed before connect) POLLERR.
func sysConnect(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workSocket)
	conn, e := k.Net.Connect(p, uint16(ic.Arg(1)), ic.Arg(2) == RemoteHost, s.nonblock, s.timeo)
	if e != 0 {
		return errno(e)
	}
	s.conn = conn
	return 0
}

// Host selectors for the connect syscall's third argument.
const (
	// LocalHost addresses a service on this machine (loopback).
	LocalHost = 0
	// RemoteHost addresses the machine at the other end of the link.
	RemoteHost = 1
)

// sysSendTo sends on a connected socket (same path as write).
func sysSendTo(k *Kernel, p *Proc, ic core.IContext) uint64 {
	return sysWrite(k, p, ic)
}

// sysRecv receives from a connected socket (same path as read).
func sysRecv(k *Kernel, p *Proc, ic core.IContext) uint64 {
	return sysRead(k, p, ic)
}

// sysNonblock switches a socket's blocking discipline: arg1 non-zero
// sets nonblocking (EAGAIN instead of blocking on accept, connect,
// read, and write).
func sysNonblock(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollCtl)
	s.nonblock = ic.Arg(1) != 0
	return 0
}

// sysSockTimeo sets the socket's timeout in cycles (0 clears). On a
// connected socket it arms the receive-idle auto-close (keep-alive
// kill); on an unconnected one it is stored and used as the connect
// timeout, and inherited by accepted connections as their idle
// timeout.
func sysSockTimeo(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollCtl)
	s.timeo = ic.Arg(1)
	if s.conn != nil {
		k.Net.SetIdleTimeout(s.conn, s.timeo)
	}
	return 0
}

// --- poll sets (epoll-style readiness) ------------------------------------

// Poll event bits (sysPollCtl interest mask and sysPollWait results).
const (
	POLLIN  = 1 // accept would succeed / data buffered / EOF readable
	POLLOUT = 2 // established and window open
	POLLHUP = 4 // peer closed or locally closed
	POLLERR = 8 // connect timed out, or the member fd is dead
)

// Poll-set control ops (sysPollCtl arg1).
const (
	PollCtlAdd = 1
	PollCtlMod = 2
	PollCtlDel = 3
)

// PollSet is the kernel object behind sysPollCreate: a set of member
// socket fds with per-fd interest masks. Readiness is level-triggered
// and computed on demand by scanning members in ascending fd order —
// there is no per-packet bookkeeping, so the structure serializes
// trivially and wakeups stay deterministic.
type PollSet struct {
	ns  *NetStack
	fds []int // ascending
	// interest maps member fd -> event mask. Iteration always goes
	// through the sorted fds slice, never the map.
	interest map[int]uint32
	// owner is the creating process: member fds index its table. A
	// poll set is private to its creator (not meaningfully inherited
	// across fork).
	owner *Proc
}

func (ps *PollSet) ReadAt(p *Proc, b []byte, off int64) (int, error)  { return 0, ErrNotReadable }
func (ps *PollSet) WriteAt(p *Proc, b []byte, off int64) (int, error) { return 0, ErrNotWritable }
func (ps *PollSet) Size() int64                                       { return 0 }

// Ready reports whether any member is ready (select-on-pollset).
func (ps *PollSet) Ready() bool {
	ps.ns.Poll()
	for _, fd := range ps.fds {
		if ps.readiness(ps.owner, fd) != 0 {
			return true
		}
	}
	return false
}

func (ps *PollSet) Close(k *Kernel) error { return nil }

type pollMember struct {
	fd     int
	events uint32
}

// readiness computes fd's level-triggered event set, masked by the
// registered interest (POLLHUP and POLLERR always report).
func (ps *PollSet) readiness(p *Proc, fd int) uint32 {
	if p == nil {
		return 0
	}
	d, e := p.fd(fd)
	if e != 0 {
		return POLLERR
	}
	s, ok := d.Ops.(*Socket)
	if !ok {
		return POLLERR
	}
	var ev uint32
	if s.listener != nil {
		if len(s.listener.backlog) > 0 {
			ev |= POLLIN
		}
	} else if c := s.conn; c != nil {
		if c.timedOut || c.refused {
			ev |= POLLERR
		}
		if c.rxLen() > 0 || c.peerClosed || c.closed {
			ev |= POLLIN
		}
		if c.peerClosed || c.closed {
			ev |= POLLHUP
		}
		if c.established && !c.peerClosed && !c.closed && ps.ns.sendRoom(c) > 0 {
			ev |= POLLOUT
		}
	}
	return ev & (ps.interest[fd] | POLLHUP | POLLERR)
}

// sysPollCreate allocates an empty poll set and returns its fd.
func sysPollCreate(k *Kernel, p *Proc, ic core.IContext) uint64 {
	k.HAL.KAccess(workPollCreate)
	fd, e := p.allocFD(&PollSet{ns: k.Net, interest: make(map[int]uint32), owner: p}, false)
	if e != 0 {
		return errno(e)
	}
	return uint64(fd)
}

func pollSetOf(p *Proc, fd int) (*PollSet, uint64) {
	d, e := p.fd(fd)
	if e != 0 {
		return nil, e
	}
	ps, ok := d.Ops.(*PollSet)
	if !ok {
		return nil, EINVAL
	}
	return ps, 0
}

// sysPollCtl edits a poll set: arg0 poll fd, arg1 op (add/mod/del),
// arg2 member socket fd, arg3 interest mask. Errnos follow epoll:
// EEXIST on duplicate add, ENOENT on mod/del of a non-member.
func sysPollCtl(k *Kernel, p *Proc, ic core.IContext) uint64 {
	ps, e := pollSetOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollCtl)
	op := int(ic.Arg(1))
	fd := int(ic.Arg(2))
	events := uint32(ic.Arg(3))
	if _, se := sockOf(p, fd); se != 0 && op != PollCtlDel {
		return errno(se)
	}
	_, member := ps.interest[fd]
	switch op {
	case PollCtlAdd:
		if member {
			return errno(EEXIST)
		}
		i := sort.SearchInts(ps.fds, fd)
		ps.fds = append(ps.fds, 0)
		copy(ps.fds[i+1:], ps.fds[i:])
		ps.fds[i] = fd
		ps.interest[fd] = events
	case PollCtlMod:
		if !member {
			return errno(ENOENT)
		}
		ps.interest[fd] = events
	case PollCtlDel:
		if !member {
			return errno(ENOENT)
		}
		i := sort.SearchInts(ps.fds, fd)
		ps.fds = append(ps.fds[:i], ps.fds[i+1:]...)
		delete(ps.interest, fd)
	default:
		return errno(EINVAL)
	}
	return 0
}

// sysPollWait collects ready members: arg0 poll fd, arg1 user buffer
// receiving (fd uint32, events uint32) pairs, arg2 its capacity in
// events, arg3 timeout in cycles (0 = wait forever). Returns the event
// count, 0 on timeout. Level-triggered: members still ready on the
// next call report again. Results are written in ascending fd order.
// The charge is workPollWaitBase + workPollPerEvent per reported event
// — O(ready), not O(members), the epoll cost shape.
func sysPollWait(k *Kernel, p *Proc, ic core.IContext) uint64 {
	ps, e := pollSetOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollWaitBase)
	buf := ic.Arg(1)
	maxev := int(ic.Arg(2))
	timeout := ic.Arg(3)
	if maxev <= 0 {
		return errno(EINVAL)
	}
	collect := func() []pollMember {
		var out []pollMember
		for _, fd := range ps.fds {
			if ev := ps.readiness(p, fd); ev != 0 {
				out = append(out, pollMember{fd: fd, events: ev})
				if len(out) == maxev {
					break
				}
			}
		}
		return out
	}
	k.Net.Poll()
	ready := collect()
	if len(ready) == 0 {
		expired := false
		var tid timerID
		if timeout != 0 {
			tid = k.Net.wheel.after(k.M.Clock.Cycles(), timeout, func() { expired = true })
		}
		p.block(func() bool {
			k.Net.Poll()
			if expired {
				return true
			}
			for _, fd := range ps.fds {
				if ps.readiness(p, fd) != 0 {
					return true
				}
			}
			return false
		})
		if tid != 0 && !expired {
			k.Net.wheel.cancel(tid)
		}
		ready = collect()
		if len(ready) == 0 {
			return 0 // timeout
		}
	}
	k.HAL.KAccess(len(ready) * workPollPerEvent)
	out := make([]byte, 0, len(ready)*8)
	for _, m := range ready {
		out = append(out,
			byte(m.fd), byte(m.fd>>8), byte(m.fd>>16), byte(m.fd>>24),
			byte(m.events), byte(m.events>>8), byte(m.events>>16), byte(m.events>>24))
	}
	if err := k.copyout(p, hw.Virt(buf), out); err != nil {
		return errno(EFAULT)
	}
	return uint64(len(ready))
}
