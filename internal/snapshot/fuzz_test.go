package snapshot

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzSnapshotRoundTrip drives the whole contract from fuzzed inputs:
// pick a mode and a snap point, compare a snapshotted run against the
// straight run over the full final state (cycles, ledgers, memory,
// kernel structures — all folded into the encoded image), and check
// that a fuzz-chosen bit flip anywhere in the encoded image is rejected
// by the checksum before any state is touched.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0))
	f.Add(uint8(1), uint8(1), uint32(17))
	f.Add(uint8(2), uint8(0), uint32(4099))
	f.Add(uint8(1), uint8(0), uint32(1<<20))
	f.Fuzz(func(t *testing.T, modeB, snapB uint8, flip uint32) {
		mode := core.Mode(int(modeB) % 3)
		const phases = 2
		snap := int(snapB) % phases

		cold := newSys(t, mode, 1)
		for i := 0; i < phases; i++ {
			runPhase(t, cold, i)
		}
		want := fingerprint(t, cold)
		wantCycles := cold.Machine.Clock.Cycles()

		src := newSys(t, mode, 1)
		for i := 0; i < snap; i++ {
			runPhase(t, src, i)
		}
		img, err := Capture(src)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}

		// Corruption corpus: any single-bit mutation must be rejected.
		mut := append([]byte(nil), data...)
		pos := int(flip) % len(mut)
		mut[pos] ^= byte(1 << (flip % 8))
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", pos)
		}

		img2, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		dst := newSys(t, mode, 1)
		if err := Restore(dst, img2); err != nil {
			t.Fatal(err)
		}
		for i := snap; i < phases; i++ {
			runPhase(t, dst, i)
		}
		if got := fingerprint(t, dst); !bytes.Equal(got, want) {
			t.Fatalf("mode %v snap %d: restored run diverged from straight run", mode, snap)
		}
		if got := dst.Machine.Clock.Cycles(); got != wantCycles {
			t.Fatalf("mode %v snap %d: cycles %d, want %d", mode, snap, got, wantCycles)
		}
	})
}
