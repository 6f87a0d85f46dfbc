// Command hostbench is the simulator's host-cost benchmark. It runs one
// named workload through the program's public entry points for a given
// number of host seconds and prints one JSON line of metrics.
//
// Each iteration of the workload runs in a fresh child process, one
// after another: the child boots the workload's systems (timed as
// set-up), runs the measured phase, checks its virtual results against
// the pinned fingerprint (or, under other seeds, against invariants),
// and reports its host costs to the parent. A fresh process per
// iteration keeps iterations independent: the simulator leaves parked
// process goroutines behind after some runs, and a heap that grows
// across iterations would change what later iterations cost.
//
// With --trace 0 the result holds the end-to-end metrics, each the
// median over the run's iterations. With --trace 1 the first half of
// the time runs untraced and the second half traced, and the result
// holds the per-layer metrics (report.go).
//
// Run it from the repository root with hostbench/run.sh, which builds
// it; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: c10k|bulk_http|postmark|lmbench")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (feeds hw.MachineConfig.Seed and postmark.Config.Seed)")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run one iteration (\"plain\" or \"traced\") and print its record")
	pinsOut := flag.String("write-pins", "", "run every workload once at the default seed and write the fingerprints to this file")
	flag.Parse()

	if *pinsOut != "" {
		if err := writePins(*pinsOut); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: need --workload c10k|bulk_http|postmark|lmbench, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if *child != "" {
		if err := childMain(w, *seed, *child == "traced"); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		var plain []iterRecord
		if plain, err = iterate(w, *seed, d, false); err == nil {
			res, err = endToEnd(plain)
		}
	} else {
		var plain, traced []iterRecord
		if plain, err = iterate(w, *seed, d/2, false); err == nil {
			if traced, err = iterate(w, *seed, d/2, true); err == nil {
				res, err = perLayer(plain, traced)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// iterate runs iterations of w in child processes, one at a time,
// until d has passed (at least one), and returns their records. A child
// that fails to run fails the run; one whose virtual results fail their
// check ends it, and the report marks it incorrect.
func iterate(w workload, seed uint64, d time.Duration, traced bool) ([]iterRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "plain"
	if traced {
		mode = "traced"
	}
	var recs []iterRecord
	start := time.Now()
	for len(recs) == 0 || time.Since(start) < d {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10), "--child", mode)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", w.name, len(recs), err)
		}
		var rec iterRecord
		if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", w.name, len(recs), err)
		}
		recs = append(recs, rec)
		if rec.Invalid != "" {
			break // the run is incorrect; the report says so
		}
	}
	return recs, nil
}

func childMain(w workload, seed uint64, traced bool) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	rec, err := runIteration(w, seed, pins, traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}
