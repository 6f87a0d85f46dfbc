package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

// Tests for the buffers read and write stage data through: the
// per-process kernel I/O buffer (Proc.ioBuf), connection receive
// buffers (net.go), recycled NIC frames, and the access_ok check
// that runs before any of them is sized.

// loopbackPair connects two sockets of p over loopback and returns the
// connecting end and the accepted end. The connecting end is
// nonblocking (a blocking loopback connect would wait for the accept
// this same process has not issued yet).
func loopbackPair(p *Proc, port uint16) (cfd, afd uint64) {
	sfd := p.Syscall(SysSocket)
	p.Syscall(SysBind, sfd, uint64(port))
	p.Syscall(SysListen, sfd, 0)
	cfd = p.Syscall(SysSocket)
	p.Syscall(SysNonblock, cfd, 1)
	p.Syscall(SysConnect, cfd, uint64(port), LocalHost)
	afd = p.Syscall(SysAccept, sfd)
	return cfd, afd
}

// fill writes n copies of b at va.
func fill(p *Proc, va uint64, b byte, n int) {
	p.Write(va, bytes.Repeat([]byte{b}, n))
}

// TestHugeCountFaults is the regression test for counts that no user
// buffer can hold: read, write, recv and sendto must return EFAULT
// before sizing any host buffer by the count (1<<62 used to panic the
// simulator in makeslice), and a buffer range that runs off the end of
// user space faults the same way.
func TestHugeCountFaults(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		got := map[string]uint64{}
		var after uint64
		if _, err := k.Spawn("huge", func(p *Proc) {
			buf := p.Alloc(64)
			fill(p, buf, 'x', 64)
			nul := p.Syscall(SysOpen, p.PushString("/dev/null"), ORdWr)
			cfd, afd := loopbackPair(p, 7100)
			got["read"] = p.Syscall(SysRead, nul, buf, 1<<62)
			got["write"] = p.Syscall(SysWrite, nul, buf, 1<<62)
			got["recv"] = p.Syscall(SysRecv, afd, buf, 1<<62)
			got["sendto"] = p.Syscall(SysSendTo, cfd, buf, 1<<62)
			got["read past user top"] = p.Syscall(SysRead, nul, uint64(hw.UserTop)-8, 64)
			got["write wrapping"] = p.Syscall(SysWrite, nul, ^uint64(0)-8, 64)
			// The process and its sockets are still usable.
			p.Syscall(SysSendTo, cfd, buf, 5)
			after = p.Syscall(SysRecv, afd, buf, 64)
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		for _, name := range []string{"read", "write", "recv", "sendto", "read past user top", "write wrapping"} {
			if e, bad := IsErr(got[name]); !bad || e != EFAULT {
				t.Errorf("[%v] %s = %d, want EFAULT", mode, name, int64(got[name]))
			}
		}
		if after != 5 {
			t.Errorf("[%v] recv after the faults = %d, want 5", mode, int64(after))
		}
	}
}

// TestShortReadAfterLongRead: the kernel buffer a long read filled is
// reused by a shorter read on another descriptor, which must copy out
// only the bytes it got and leave the rest of the user buffer alone.
func TestShortReadAfterLongRead(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		k.WriteKernelFile("/long", bytes.Repeat([]byte{'L'}, 8192))
		k.WriteKernelFile("/short", []byte("abc"))
		var n uint64
		var user []byte
		if _, err := k.Spawn("reader", func(p *Proc) {
			long := p.Syscall(SysOpen, p.PushString("/long"), ORdOnly)
			short := p.Syscall(SysOpen, p.PushString("/short"), ORdOnly)
			big := p.Alloc(8192)
			p.Syscall(SysRead, long, big, 8192)
			buf := p.Alloc(64)
			fill(p, buf, 0xEE, 64)
			n = p.Syscall(SysRead, short, buf, 64)
			user = p.Read(buf, 64)
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		want := append([]byte("abc"), bytes.Repeat([]byte{0xEE}, 61)...)
		if n != 3 || !bytes.Equal(user, want) {
			t.Errorf("[%v] short read = %d, user buffer % x", mode, int64(n), user)
		}
	}
}

// TestEAGAINRecvLeavesBufferUntouched: a nonblocking recv with nothing
// buffered returns EAGAIN and writes nothing, even though the kernel
// buffer still holds an earlier recv's bytes.
func TestEAGAINRecvLeavesBufferUntouched(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var first, again uint64
		var user []byte
		if _, err := k.Spawn("poller", func(p *Proc) {
			cfd, afd := loopbackPair(p, 7101)
			p.Syscall(SysNonblock, afd, 1)
			buf := p.Alloc(64)
			p.Write(buf, []byte("stale data"))
			p.Syscall(SysSendTo, cfd, buf, 10)
			first = p.Syscall(SysRecv, afd, buf, 64)
			fill(p, buf, 0xEE, 64)
			again = p.Syscall(SysRecv, afd, buf, 64)
			user = p.Read(buf, 64)
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if first != 10 {
			t.Errorf("[%v] first recv = %d, want 10", mode, int64(first))
		}
		if e, bad := IsErr(again); !bad || e != EAGAIN {
			t.Errorf("[%v] empty recv = %d, want EAGAIN", mode, int64(again))
		}
		if !bytes.Equal(user, bytes.Repeat([]byte{0xEE}, 64)) {
			t.Errorf("[%v] EAGAIN recv wrote the user buffer: % x", mode, user)
		}
	}
}

// TestRecvBufferReuseKeepsOrder walks the receive buffer through a
// partial recv, a new arrival behind the unread bytes, a full drain
// (which rewinds the buffer) and a new arrival into the rewound
// buffer.
func TestRecvBufferReuseKeepsOrder(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		var got []string
		if _, err := k.Spawn("order", func(p *Proc) {
			cfd, afd := loopbackPair(p, 7102)
			sbuf, rbuf := p.Alloc(64), p.Alloc(64)
			send := func(s string) {
				p.Write(sbuf, []byte(s))
				p.Syscall(SysSendTo, cfd, sbuf, uint64(len(s)))
			}
			recv := func(n int) {
				m := p.Syscall(SysRecv, afd, rbuf, uint64(n))
				got = append(got, string(p.Read(rbuf, int(m))))
			}
			send("ABCDEF")
			recv(2)
			send("GHI")
			recv(64)
			send("JKL")
			recv(64)
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if want := []string{"AB", "CDEFGHI", "JKL"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("[%v] recvs = %q, want %q", mode, got, want)
		}
	}
}

// TestRxBufferModel drives a connection's receive buffer with a
// pseudo-random mix of arrivals, reservations and reads against a
// plain byte-slice model, covering the slide, grow and rewind paths.
func TestRxBufferModel(t *testing.T) {
	c := &Conn{}
	var model []byte
	next := byte(0)
	x := uint32(12345)
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return int(x % uint32(n))
	}
	out := make([]byte, 4096)
	for step := 0; step < 20000; step++ {
		switch rnd(3) {
		case 0:
			data := make([]byte, rnd(3000))
			for i := range data {
				data[i] = next
				next++
			}
			c.rxAppend(data)
			model = append(model, data...)
		case 1:
			c.rxReserve(rnd(6000))
		default:
			n := c.rxRead(out[:rnd(len(out))])
			if !bytes.Equal(out[:n], model[:n]) {
				t.Fatalf("step %d: read % x, want % x", step, out[:n], model[:n])
			}
			model = model[n:]
		}
		if c.rxLen() != len(model) {
			t.Fatalf("step %d: rxLen %d, model %d", step, c.rxLen(), len(model))
		}
	}
}

// TestMegabyteTransferIn32KRecvs moves 1 MiB across the wire in one
// sendto (larger than the reusable kernel buffer) and reads it back in
// 32 KiB recvs: recycled frames and reused receive buffers must deliver
// it byte-identical.
func TestMegabyteTransferIn32KRecvs(t *testing.T) {
	server, client, world := bootPair(t)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	var received []byte
	if _, err := server.Spawn("srv", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7103)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysAccept, sfd)
		buf := p.Alloc(32 << 10)
		for len(received) < len(payload) {
			n := p.Syscall(SysRecv, cfd, buf, 32<<10)
			if _, bad := IsErr(n); bad || n == 0 {
				break
			}
			received = p.AppendRead(received, buf, int(n))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Spawn("cli", func(p *Proc) {
		fd := p.Syscall(SysSocket)
		p.Syscall(SysConnect, fd, 7103, RemoteHost)
		buf := p.Alloc(len(payload))
		for off := 0; off < len(payload); off += 64 << 10 {
			p.Write(buf+uint64(off), payload[off:off+64<<10])
		}
		p.Syscall(SysSendTo, fd, buf, uint64(len(payload)))
		p.Syscall(SysClose, fd)
	}); err != nil {
		t.Fatal(err)
	}
	world.Run(func() bool { return len(received) >= len(payload) })
	if !bytes.Equal(received, payload) {
		t.Fatalf("1 MiB transfer corrupted (%d bytes received)", len(received))
	}
}

// argsIC is a syscall argument vector for calling handlers directly,
// without the trap entry path.
type argsIC struct {
	args [6]uint64
	ret  uint64
}

func (ic *argsIC) SyscallNum() uint64    { return 0 }
func (ic *argsIC) Arg(i int) uint64      { return ic.args[i] }
func (ic *argsIC) SetRet(v uint64)       { ic.ret = v }
func (ic *argsIC) Thread() core.ThreadID { return 0 }

// netFixture is a booted kernel with one process holding a connected
// loopback socket pair (both ends nonblocking) and a warmed user
// buffer. The process parks in a select that never returns, so a test
// or benchmark can run syscall handlers on its behalf from its own
// goroutine.
type netFixture struct {
	k        *Kernel
	p        *Proc
	cfd, afd uint64
	buf      uint64
}

const fixtureBuf = 32 << 10

func newNetFixture(tb testing.TB, mode core.Mode) *netFixture {
	tb.Helper()
	f := &netFixture{k: bootKernel(tb, mode)}
	p, err := f.k.Spawn("net", func(p *Proc) {
		f.cfd, f.afd = loopbackPair(p, 7200)
		p.Syscall(SysNonblock, f.afd, 1)
		f.buf = p.Alloc(fixtureBuf)
		fill(p, f.buf, 'w', fixtureBuf)
		p.Syscall(SysSelect, 0, 0, 1) // park for good
	})
	if err != nil {
		tb.Fatal(err)
	}
	f.k.RunUntilIdle()
	f.p = p
	return f
}

// sendRecv sends n bytes from the client end and receives them on the
// accepted end.
func (f *netFixture) sendRecv(tb testing.TB, send, recv *argsIC) {
	if got := sysSendTo(f.k, f.p, send); got != send.args[2] {
		tb.Fatalf("sendto = %d", int64(got))
	}
	if got := sysRecv(f.k, f.p, recv); got != send.args[2] {
		tb.Fatalf("recv = %d", int64(got))
	}
}

// TestNetDataPathAllocationFree pins the steady-state allocation budget
// of the socket data path at zero: a nonblocking recv that finds
// nothing, a segment sent and received over loopback (also with an idle
// timeout re-armed per segment), and a poll wait reporting one ready
// member, once the process's kernel buffer, the connection's receive
// buffer, the timer heap and the frame free list are warm.
func TestNetDataPathAllocationFree(t *testing.T) {
	for _, mode := range modes() {
		f := newNetFixture(t, mode)
		eagain := &argsIC{args: [6]uint64{f.afd, f.buf, 4096}}
		if a := testing.AllocsPerRun(200, func() {
			if e, _ := IsErr(sysRecv(f.k, f.p, eagain)); e != EAGAIN {
				t.Fatalf("[%v] empty recv did not return EAGAIN", mode)
			}
		}); a != 0 {
			t.Errorf("[%v] EAGAIN recv allocates %.1f times per call", mode, a)
		}
		for _, n := range []uint64{64, 1024} { // a short frame and a full-class one
			send := &argsIC{args: [6]uint64{f.cfd, f.buf, n}}
			recv := &argsIC{args: [6]uint64{f.afd, f.buf, 4096}}
			if a := testing.AllocsPerRun(200, func() { f.sendRecv(t, send, recv) }); a != 0 {
				t.Errorf("[%v] sendto+recv of a %d-byte segment allocates %.1f times per call", mode, n, a)
			}
		}
		// With an idle timeout every received segment re-arms the
		// connection's timer.
		sysSockTimeo(f.k, f.p, &argsIC{args: [6]uint64{f.afd, 1 << 40}})
		send := &argsIC{args: [6]uint64{f.cfd, f.buf, 64}}
		recv := &argsIC{args: [6]uint64{f.afd, f.buf, 4096}}
		if a := testing.AllocsPerRun(200, func() { f.sendRecv(t, send, recv) }); a != 0 {
			t.Errorf("[%v] sendto+recv with an idle timeout allocates %.1f times per call", mode, a)
		}
		// A poll wait that finds one member ready (data left buffered:
		// level-triggered, it reports on every call).
		pfd := sysPollCreate(f.k, f.p, &argsIC{})
		sysPollCtl(f.k, f.p, &argsIC{args: [6]uint64{pfd, PollCtlAdd, f.afd, POLLIN}})
		sysSendTo(f.k, f.p, send)
		wait := &argsIC{args: [6]uint64{pfd, f.buf, 8}}
		if a := testing.AllocsPerRun(200, func() {
			if n := sysPollWait(f.k, f.p, wait); n != 1 {
				t.Fatalf("[%v] pollwait = %d, want 1", mode, int64(n))
			}
		}); a != 0 {
			t.Errorf("[%v] pollwait with one ready event allocates %.1f times per call", mode, a)
		}
	}
}

// BenchmarkNetSendRecv measures the net stack's host cost for one
// 1 KiB segment: sendto on one end of a loopback pair, recv on the
// other, handlers called directly (trap entry excluded).
func BenchmarkNetSendRecv(b *testing.B) {
	f := newNetFixture(b, core.ModeNative)
	send := &argsIC{args: [6]uint64{f.cfd, f.buf, 1024}}
	recv := &argsIC{args: [6]uint64{f.afd, f.buf, 4096}}
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sendRecv(b, send, recv)
	}
}

// BenchmarkNetRecvEAGAIN measures a nonblocking recv that finds the
// connection empty — the event loops' most frequent call.
func BenchmarkNetRecvEAGAIN(b *testing.B) {
	f := newNetFixture(b, core.ModeNative)
	ic := &argsIC{args: [6]uint64{f.afd, f.buf, 32 << 10}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sysRecv(f.k, f.p, ic)
	}
}
