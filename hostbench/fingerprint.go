package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/hw"
)

// A fingerprint is a workload's virtual results: total cycles and the
// per-tag ledger of each machine configuration, plus the results the
// experiment reports. The simulator is deterministic, so for a given
// seed the fingerprint repeats bit for bit; it is the benchmark's
// correctness gate, never a performance number.
type fingerprint map[string]float64

// addLedger records a configuration's cycles and per-tag ledger.
func (f fingerprint) addLedger(config string, l hw.Ledger) {
	f[config+".cycles"] = float64(l.Total())
	for t := hw.Tag(0); t < hw.NumTags; t++ {
		f[config+".vcycles."+t.String()] = float64(l[t])
	}
}

// diff returns one line per key whose value differs from want, or that
// only one side has, in key order.
func (f fingerprint) diff(want fingerprint) []string {
	keys := map[string]bool{}
	for k := range f {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		got, okG := f[k]
		exp, okW := want[k]
		if okG != okW || math.Float64bits(got) != math.Float64bits(exp) {
			out = append(out, fmt.Sprintf("%s: got %v (present %v), pinned %v (present %v)", k, got, okG, exp, okW))
		}
	}
	sort.Strings(out)
	return out
}

// defaultSeed is the seed whose fingerprints are pinned.
const defaultSeed = 42

// pinFile is the format of pins.json.
type pinFile struct {
	Seed      uint64                 `json:"seed"`
	Workloads map[string]fingerprint `json:"workloads"`
}

// pinsJSON holds the pinned fingerprints of every workload at the
// default seed. Only a change that declares a change to the virtual
// model may regenerate it (README.md says how).
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// checkFingerprint checks that the configurations agree where they
// must, and compares the fingerprint with its pin where one applies: at
// the pinned seed, and under every seed for a workload the seed does
// not reach.
func checkFingerprint(p pinFile, w workload, seed uint64, fp fingerprint) error {
	if err := checkAgreement(fp, w.agree); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if w.seeded && seed != p.Seed {
		return nil
	}
	want, ok := p.Workloads[w.name]
	if !ok {
		return fmt.Errorf("%s: no pinned fingerprint", w.name)
	}
	if d := fp.diff(want); len(d) > 0 {
		return fmt.Errorf("%s: virtual fingerprint differs from pins.json in %d values, first: %s", w.name, len(d), d[0])
	}
	return nil
}

// checkAgreement checks that each key is present and equal in every
// configuration of the fingerprint (the part of its keys before the
// first dot), and that it holds at least two configurations.
func checkAgreement(fp fingerprint, keys []string) error {
	seen := map[string]bool{}
	var configs []string
	for k := range fp {
		if c, _, _ := strings.Cut(k, "."); !seen[c] {
			seen[c] = true
			configs = append(configs, c)
		}
	}
	if len(configs) < 2 {
		return fmt.Errorf("fingerprint holds %d configurations, want at least 2", len(configs))
	}
	sort.Strings(configs)
	for _, key := range keys {
		want, ok := fp[configs[0]+"."+key]
		for _, c := range configs[1:] {
			got, okC := fp[c+"."+key]
			if !ok || !okC || math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("%s differs between configurations: %s %v (present %v), %s %v (present %v)",
					key, configs[0], want, ok, c, got, okC)
			}
		}
	}
	return nil
}

// writePins runs every workload once at the default seed and writes
// their fingerprints to path.
func writePins(path string) error {
	p := pinFile{Seed: defaultSeed, Workloads: map[string]fingerprint{}}
	for _, w := range workloads {
		b, err := w.setup(defaultSeed)
		if err != nil {
			return err
		}
		out, err := b.run()
		if err != nil {
			return err
		}
		p.Workloads[w.name] = out.fp
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
