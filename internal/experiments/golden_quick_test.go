package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestGoldenQuick pins every number the quick suite (`vgbench -quick`)
// reports: Tables 2–5, Figures 2–4, the security matrix, the CPU
// sweep to 8 CPUs, C10K and the snapshot differential, each run at
// QuickScale and JSON-encoded into testdata/golden_quick.json. Host
// measurements (CPUPoint.HostSec) are dropped, and so is
// SnapRow.ImageBytes: the encoded image size belongs to the snapshot
// file format (versioned by kernel.SnapshotImageVersion), not to the
// simulated machine. Everything else is a deterministic function of the
// workload, so any drift fails here with the experiment that moved.
//
// After an intentional change to the virtual model, regenerate with:
//
//	go test ./internal/experiments -run 'TestGoldenQuick$' -update
//
// and justify the new numbers in the commit message.
func TestGoldenQuick(t *testing.T) {
	const path = "testdata/golden_quick.json"
	got := collectGoldenQuick(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d experiments", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d experiments, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		var wc, gc bytes.Buffer
		if err := json.Compact(&wc, w); err != nil {
			t.Fatalf("%s: bad golden entry: %v", name, err)
		}
		if err := json.Compact(&gc, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wc.Bytes(), gc.Bytes()) {
			t.Errorf("%s: virtual results moved:\n--- golden\n%s\n--- current\n%s", name, wc.Bytes(), gc.Bytes())
		}
	}
}

// collectGoldenQuick runs every quick-suite experiment once and returns
// each result JSON-encoded, keyed by its vgbench -only name.
func collectGoldenQuick(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	sc := QuickScale()
	cpu := CPUScaling(sc, CPUCounts)
	for i := range cpu {
		cpu[i].HostSec = 0
	}
	snap := SnapDifferential()
	for i := range snap {
		snap[i].ImageBytes = 0
	}
	results := map[string]any{
		"t2":   Table2(sc),
		"t3":   Table3(sc),
		"t4":   Table4(sc),
		"f2":   Figure2(sc),
		"f3":   Figure3(sc),
		"f4":   Figure4(sc),
		"t5":   Table5(sc),
		"sec":  SecurityMatrix(),
		"cpu":  cpu,
		"c10k": C10K(sc),
		"snap": snap,
	}
	out := make(map[string]json.RawMessage, len(results))
	for name, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}
	return out
}
