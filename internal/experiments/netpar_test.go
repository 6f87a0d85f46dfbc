package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/hw"
	"repro/internal/kernel"
)

const netParClients = 6

// netStackFingerprint runs the event-driven networking path (poll sets,
// the timer wheel, nonblocking sockets) on a 4-CPU machine — event
// server plus concurrent keep-alive/session clients and one slowloris
// connection reaped by the timer wheel — and digests every
// deterministic virtual output. TestGoldenSMP pins the result.
func netStackFingerprint(t *testing.T) string {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = 4
	sys, err := repro.NewSystemWithOptions(repro.Native, repro.Options{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel
	seedFile(k, "/a.bin", 8<<10)
	appKey := make([]byte, 32)
	sys.Machine.RNG.Fill(appKey)
	// The idle timeout must outlive a busy client's between-request gap
	// (which stretches under 4-CPU per-syscall interleaving) while still
	// reaping the slowloris conn; large virtual timeouts cost no host
	// time — idle skip jumps straight to the expiry.
	if _, err := k.Spawn("eventd", httpd.EventServerMain(httpd.EventServerConfig{
		Port:              httpd.EventPort,
		IdleTimeoutCycles: 50_000_000,
		AppKey:            appKey,
	})); err != nil {
		t.Fatal(err)
	}
	finished := 0
	for i := 0; i < netParClients; i++ {
		idx := i
		if _, err := k.Spawn(fmt.Sprintf("client%d", i), func(p *kernel.Proc) {
			defer func() { finished++ }()
			fd, ok := httpd.EventDial(p, httpd.EventPort, false)
			if !ok {
				t.Errorf("client %d: dial failed", idx)
				return
			}
			for r := 0; r < 4; r++ {
				st, _, ok := httpd.EventRequest(p, fd, "GET /a.bin")
				if !ok || !strings.HasPrefix(st, "200 ") {
					t.Errorf("client %d: GET = %q", idx, st)
					return
				}
			}
			st, _, ok := httpd.EventRequest(p, fd, fmt.Sprintf("LOGIN u%d", idx))
			if !ok || !strings.HasPrefix(st, "210 ") {
				t.Errorf("client %d: LOGIN = %q", idx, st)
				return
			}
			tok := strings.TrimPrefix(st, "210 ")
			st, _, ok = httpd.EventRequest(p, fd, "AUTH "+tok+" /a.bin")
			if !ok || !strings.HasPrefix(st, "200 ") {
				t.Errorf("client %d: AUTH = %q", idx, st)
				return
			}
			p.Syscall(kernel.SysClose, fd)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The slowloris conn exercises the idle-timeout path of the wheel;
	// the EOF it blocks on arrives via a timer fire. Afterwards it
	// waits for the regular clients and shuts the server down.
	if _, err := k.Spawn("slow-then-stop", func(p *kernel.Proc) {
		fd, ok := httpd.EventDial(p, httpd.EventPort, false)
		if !ok {
			t.Error("slowloris: dial failed")
			return
		}
		frag := p.PushString("GE")
		p.Syscall(kernel.SysSendTo, fd, frag, 2)
		buf := p.Alloc(8)
		if n := p.Syscall(kernel.SysRecv, fd, buf, 8); n != 0 {
			t.Errorf("slowloris: recv = %d, want idle-kill EOF", int64(n))
		}
		p.Syscall(kernel.SysClose, fd)
		for finished < netParClients {
			p.Syscall(kernel.SysYield)
		}
		httpd.StopEventServer(p, httpd.EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if finished != netParClients {
		t.Fatalf("%d/%d clients finished", finished, netParClients)
	}

	m := sys.Machine
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles=%d\n", m.Clock.Cycles())
	fmt.Fprintf(&sb, "ledger=%v\n", m.Clock.Ledger())
	for i := 0; i < k.NumCPUs(); i++ {
		fmt.Fprintf(&sb, "cpu%d=%v\n", i, m.Clock.CPULedger(i))
	}
	fmt.Fprintf(&sb, "busy=%v\n", k.CPUBusy())
	fmt.Fprintf(&sb, "stats=%+v\n", k.Stats())
	fmt.Fprintf(&sb, "net=%+v\n", k.Net.Stats())
	return sb.String()
}
