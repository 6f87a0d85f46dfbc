// Command vircheck lints .vir IR text files against the static
// admission checker, so modules can be validated standalone — before
// they are ever submitted to a kernel, and from CI over the example and
// attack-suite IR:
//
//	vircheck module.vir                  # check as-is (already instrumented IR)
//	vircheck -instrument module.vir      # run sandbox+CFI passes first, then check
//	vircheck -app app.vir                # application-side mmap-masking (Iago) check
//	vircheck -io driver_io -imports klog_acc,cur_pid module.vir
//
// Exit status: 0 all files admissible, 1 violations found, 2 parse or
// structural errors (or bad usage).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/compiler/check"
	"repro/internal/vir"
)

func main() {
	instrument := flag.Bool("instrument", false,
		"run the sandbox and CFI passes (with cleared instrumentation flags) before checking, simulating the translator pipeline")
	app := flag.Bool("app", false,
		"application-side mode: check that mmap results are masked before first dereference instead of the kernel admission invariants")
	label := flag.Uint64("label", compiler.KernelCFILabel,
		"CFI label required at function entries")
	ioList := flag.String("io", "any",
		"comma-separated functions allowed to do port I/O, or 'any'")
	imports := flag.String("imports", "any",
		"comma-separated allowed import symbols, or 'any'")
	mmapSyms := flag.String("mmap-syms", "mmap",
		"comma-separated mmap-like syscall symbols (-app mode)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: vircheck [flags] file.vir...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := check.Config{Label: *label}
	if *ioList != "any" {
		cfg.AllowIO = check.AllowList(splitList(*ioList)...)
	}
	if *imports != "any" {
		cfg.AllowImport = check.AllowList(splitList(*imports)...)
	}

	status := 0
	for _, path := range flag.Args() {
		diags, err := checkFile(path, cfg, *instrument, *app, splitList(*mmapSyms))
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			status = 2
		case len(diags) > 0:
			for _, d := range diags {
				fmt.Printf("%s: %s\n", path, d)
			}
			if status == 0 {
				status = 1
			}
		default:
			fmt.Printf("%s: ok\n", path)
		}
	}
	os.Exit(status)
}

// checkFile parses, verifies and checks one file, returning the
// diagnostics.
func checkFile(path string, cfg check.Config, instrument, app bool, mmapSyms []string) ([]check.Diagnostic, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := vir.ParseModule(string(text))
	if err != nil {
		return nil, err
	}
	if err := vir.VerifyModule(m); err != nil {
		return nil, err
	}
	if app {
		return check.CheckMmapMaskedModule(m, mmapSyms...), nil
	}
	if instrument {
		m = m.Clone()
		// Same trust posture as the translator: instrumentation flags
		// on input are claims, not facts.
		for _, f := range m.Funcs {
			f.Sandboxed = false
			f.Labeled = false
			f.Translated = false
		}
		compiler.SandboxModule(m)
		compiler.CFIModule(m)
	}
	return check.CheckModule(m, cfg), nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
