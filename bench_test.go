package repro_test

// One testing.B benchmark per table and figure of the paper's
// evaluation (§8). Each bench runs the corresponding experiment harness
// at a reduced scale and reports the headline shape metrics
// (virtual-time overheads and bandwidth ratios) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation.
// cmd/vgbench prints the full tables.

import (
	"testing"

	"repro"

	"repro/internal/apps/lmbench"
	"repro/internal/apps/postmark"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// benchScale keeps bench runtime reasonable.
func benchScale() experiments.Scale {
	return experiments.Scale{
		LMBenchIters: 60, FileCount: 80, HTTPRequests: 6, SSHRuns: 2, PostmarkTxns: 600,
	}
}

// BenchmarkTable2LMBench regenerates Table 2 and reports the
// Virtual-Ghost-vs-native overhead for each microbenchmark as a custom
// metric (e.g. "null_x").
func BenchmarkTable2LMBench(b *testing.B) {
	var rows []experiments.T2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(benchScale())
	}
	metric := map[string]string{
		"null syscall":            "null_x",
		"open/close":              "openclose_x",
		"mmap":                    "mmap_x",
		"page fault":              "pagefault_x",
		"signal handler install":  "siginstall_x",
		"signal handler delivery": "sigdeliver_x",
		"fork + exit":             "forkexit_x",
		"fork + exec":             "forkexec_x",
		"select":                  "select_x",
	}
	for _, r := range rows {
		b.ReportMetric(r.Overhead, metric[r.Test])
	}
}

// BenchmarkTable3FileDelete regenerates Table 3 (files deleted/sec).
func BenchmarkTable3FileDelete(b *testing.B) {
	var rows []experiments.FileRateRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(benchScale())
	}
	for _, r := range rows {
		b.ReportMetric(r.Overhead, "delete_x_"+sizeTag(r.SizeBytes))
	}
}

// BenchmarkTable4FileCreate regenerates Table 4 (files created/sec).
func BenchmarkTable4FileCreate(b *testing.B) {
	var rows []experiments.FileRateRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(benchScale())
	}
	for _, r := range rows {
		b.ReportMetric(r.Overhead, "create_x_"+sizeTag(r.SizeBytes))
	}
}

// BenchmarkTable5Postmark regenerates Table 5.
func BenchmarkTable5Postmark(b *testing.B) {
	var res experiments.T5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table5(benchScale())
	}
	b.ReportMetric(res.Overhead, "postmark_x")
}

// BenchmarkFigure2Thttpd regenerates Figure 2 and reports the smallest
// and largest file-size bandwidth ratios (Virtual Ghost / native).
func BenchmarkFigure2Thttpd(b *testing.B) {
	var pts []experiments.BandwidthPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure2(benchScale())
	}
	reportEnds(b, pts, "thttpd")
}

// BenchmarkFigure3SSHServer regenerates Figure 3 (sshd bandwidth).
func BenchmarkFigure3SSHServer(b *testing.B) {
	var pts []experiments.BandwidthPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure3(benchScale())
	}
	reportEnds(b, pts, "sshd")
}

// BenchmarkFigure4GhostingSSH regenerates Figure 4 (ghosting vs
// original ssh client).
func BenchmarkFigure4GhostingSSH(b *testing.B) {
	var pts []experiments.BandwidthPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure4(benchScale())
	}
	reportEnds(b, pts, "ghosting")
}

func reportEnds(b *testing.B, pts []experiments.BandwidthPoint, tag string) {
	if len(pts) == 0 {
		b.Fatal("no points")
	}
	b.ReportMetric(pts[0].Ratio, tag+"_ratio_small")
	b.ReportMetric(pts[len(pts)-1].Ratio, tag+"_ratio_large")
}

func sizeTag(n int) string {
	switch n {
	case 0:
		return "0k"
	case 1024:
		return "1k"
	case 4096:
		return "4k"
	case 10240:
		return "10k"
	}
	return "other"
}

// --- simulator fast-path benches (host time, not virtual time) ---------

// benchFrames is a FrameSource over raw machine memory.
type benchFrames struct{ m *hw.Memory }

func (s benchFrames) GetFrame() (hw.Frame, error) { return s.m.AllocFrame(hw.FrameUserData) }
func (s benchFrames) PutFrame(f hw.Frame)         { _ = s.m.FreeFrame(f) }

// benchHAL boots a native HAL with npages user pages mapped at base.
func benchHAL(b *testing.B, npages int) (*core.NativeHAL, hw.Frame, hw.Virt) {
	b.Helper()
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 2048, DiskBlocks: 64, Seed: 1})
	h, err := core.NewNativeHAL(m)
	if err != nil {
		b.Fatal(err)
	}
	h.RegisterFrameSource(benchFrames{m: m.Mem})
	h.RegisterTrapHandler(func(ic core.IContext, kind hw.TrapKind, info uint64) {})
	root, err := h.NewAddressSpace()
	if err != nil {
		b.Fatal(err)
	}
	base := hw.Virt(0x400000)
	for i := 0; i < npages; i++ {
		f, err := m.Mem.AllocFrame(hw.FrameUserData)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.MapPage(root, base+hw.Virt(i*hw.PageSize), f, hw.PTEUser|hw.PTEWrite); err != nil {
			b.Fatal(err)
		}
	}
	return h, root, base
}

// BenchmarkWalkCache measures the host cost of translated kernel loads
// hitting the (root, page)-keyed walk cache — the hot path under every
// instrumented KLoad/KStore/Copyin in the evaluation harness.
func BenchmarkWalkCache(b *testing.B) {
	h, root, base := benchHAL(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + hw.Virt((i%8)*hw.PageSize) + hw.Virt(i%512*8)
		if _, err := h.KLoad(root, va, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCopyinCopyout measures bulk user<->kernel copies through the
// page-granular fast paths (ReadPhysInto/WritePhys + walk cache).
func BenchmarkCopyinCopyout(b *testing.B) {
	h, root, base := benchHAL(b, 8)
	buf := make([]byte, 4*hw.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	va := base + 123 // unaligned, so chunks straddle page boundaries
	in := make([]byte, len(buf))
	b.SetBytes(int64(2 * len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Copyout(root, va, buf); err != nil {
			b.Fatal(err)
		}
		if err := h.Copyin(root, va, in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- execution engine benches (host time, not virtual time) ------------

// BenchmarkEngineKChecksum isolates the host cost of IR execution
// itself: the kernel's IR checksum over 4 KiB of kernel scratch, run
// through RunModuleFunc under the pre-linked engine and under the
// reference interpreter. The virtual-clock charge is identical by
// construction (the differential tests enforce it); the host ns/op and
// allocs/op are the engine's win.
func BenchmarkEngineKChecksum(b *testing.B) {
	for _, eng := range []struct {
		name string
		kind kernel.EngineKind
	}{{"linked", kernel.EngineLinked}, {"reference", kernel.EngineReference}} {
		b.Run(eng.name, func(b *testing.B) {
			sys := repro.MustNewSystem(repro.VirtualGhost)
			k := sys.Kernel
			k.SetEngine(eng.kind)
			const buf = 0xffffff8000300000
			if err := k.KMemset(buf, 0x7f, 4096); err != nil {
				b.Fatal(err)
			}
			if _, err := k.KChecksum(buf, 4096); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.KChecksum(buf, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benches (DESIGN.md design choices) -----------------------

// BenchmarkAblationNullSyscall isolates where the Virtual Ghost null-
// syscall overhead comes from by measuring all three configurations.
func BenchmarkAblationNullSyscall(b *testing.B) {
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost, repro.Shadow} {
		b.Run(mode.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				sys := repro.MustNewSystem(mode)
				us = lmbench.NullSyscall(sys.Kernel, 200)
			}
			b.ReportMetric(us, "virtual_us/op")
		})
	}
}

// BenchmarkAblationGhostCopy measures the ghosting libc's staging-copy
// discipline: reading file data into ghost memory vs traditional
// memory on a Virtual Ghost kernel (the cost Figure 4 bounds at ~5%).
func BenchmarkAblationGhostCopy(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		sys := repro.MustNewSystem(repro.VirtualGhost)
		us = lmbench.GhostRoundTrip(sys.Kernel, 16*1024, 20)
	}
	b.ReportMetric(us, "virtual_us/op")
}

// BenchmarkAblationPostmarkShadow runs Postmark on the shadowing
// baseline, completing the Table 5 comparison the paper leaves to
// LMBench extrapolation.
func BenchmarkAblationPostmarkShadow(b *testing.B) {
	var secs float64
	for i := 0; i < b.N; i++ {
		sys := repro.MustNewSystem(repro.Shadow)
		secs = postmark.Run(sys.Kernel, postmark.PaperConfig(600)).Seconds
	}
	b.ReportMetric(secs, "virtual_s")
}

// BenchmarkAblationGhostAlloc measures allocgm/freegm throughput — the
// cost of the VM's frame validation, scrubbing, and mapping per ghost
// page (DESIGN.md §5, paper §3.2).
func BenchmarkAblationGhostAlloc(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		sys := repro.MustNewSystem(repro.VirtualGhost)
		k := sys.Kernel
		var cycles uint64
		if _, err := k.Spawn("alloc", func(p *kernel.Proc) {
			start := k.M.Clock.Cycles()
			for j := 0; j < 64; j++ {
				va, err := p.AllocGM(4)
				if err != nil {
					b.Error(err)
					return
				}
				if err := p.FreeGM(va, 4); err != nil {
					b.Error(err)
					return
				}
			}
			cycles = k.M.Clock.Cycles() - start
		}); err != nil {
			b.Fatal(err)
		}
		k.RunUntilIdle()
		us = float64(cycles) / 3.4e9 * 1e6 / 64
	}
	b.ReportMetric(us, "virtual_us/allocgm4")
}
