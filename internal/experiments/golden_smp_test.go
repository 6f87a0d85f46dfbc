package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestGoldenSMP pins the multi-CPU virtual results to checked-in text:
// the full scalingFingerprint of the ghost-webserver sweep at
// QuickScale on 1, 2, 4 and 8 CPUs, and the 4-CPU net-stack
// fingerprint (netpar_test.go). A fingerprint covers the cycle total,
// the machine and per-CPU ledgers, per-CPU busy counters, kernel stats
// and IPI/shootdown counts, so any change to epoch scheduling, IPI
// delivery or per-CPU attribution fails here with the text that moved.
// Every workload runs twice and must match the pin both times.
//
// After an intentional change to the multi-CPU model, regenerate with:
//
//	go test ./internal/experiments -run 'TestGoldenSMP$' -update
//
// and justify the new numbers in the commit message.
func TestGoldenSMP(t *testing.T) {
	const path = "testdata/golden_smp.json"
	got := collectGoldenSMP(t)
	for name, fp := range collectGoldenSMP(t) {
		if fp != got[name] {
			t.Fatalf("%s is not reproducible:\n--- run 1\n%s--- run 2\n%s", name, got[name], fp)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for name, fp := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in golden file", name)
		} else if fp != w {
			t.Errorf("%s: virtual results moved:\n--- golden\n%s--- current\n%s", name, w, fp)
		}
	}
}

// collectGoldenSMP runs every pinned multi-CPU workload once.
func collectGoldenSMP(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	sc := QuickScale()
	for _, n := range []int{1, 2, 4, 8} {
		out[fmt.Sprintf("scaling/%dcpu", n)] = ghostServerThroughput(n, sc.HTTPRequests).Fingerprint
	}
	out["netstack/4cpu"] = netStackFingerprint(t)
	return out
}
