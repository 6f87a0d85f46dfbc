package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
)

// The reproduction's core contract is bit-identical virtual numbers
// across engines, snapshot warm starts, and optimization levels. These
// analyzers enforce the source-level discipline that keeps the
// contract checkable:
//
//   - rawadvance: all cycle charges go through the tagged accounting
//     entry points, so per-tag breakdowns stay complete.
//   - nodeterm: the simulation core never reads host time or host
//     randomness, so identical inputs give identical numbers.
//   - maprange: printed/formatted output never iterates a map
//     directly, so transcripts and exported artifacts are stable
//     across runs.

// deterministicCore is the Match set for the determinism analyzers:
// the hardware model, the kernel, and the IR executors. Experiments
// and commands may read host time (they measure host cost); the
// simulation core may not.
func deterministicCore(pkgPath string) bool {
	for _, p := range []string{"repro/internal/hw", "repro/internal/kernel", "repro/internal/vir"} {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the repository's analyzer suite in reporting
// order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{RawAdvance, NoDeterm, MapRange}
}

// RawAdvance forbids calls to the untagged clock entry points
// Advance/AdvanceBytes outside internal/hw/clock.go (which defines
// them, for tests that simulate the passage of time). Production code
// must charge through Clock.Charge/ChargeBytes with a real cost tag;
// an untagged charge books cycles under TagOther and silently degrades
// every per-tag breakdown. This is the AST-level promotion of the
// regex scan that previously lived in accounting_scan_test.go.
var RawAdvance = &analysis.Analyzer{
	Name: "rawadvance",
	Doc:  "forbid untagged Clock.Advance/AdvanceBytes calls outside the accounting layer",
	Run: func(pass *analysis.Pass) error {
		for _, file := range pass.Files {
			name := filepath.ToSlash(pass.Filename(file.Pos()))
			if strings.HasSuffix(name, "internal/hw/clock.go") {
				continue // defines the wrappers
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Advance" || sel.Sel.Name == "AdvanceBytes" {
					pass.Reportf(sel.Sel.Pos(),
						"raw %s call in non-test code (use Clock.Charge/ChargeBytes with a cost tag)",
						sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	},
}

// NoDeterm forbids host-nondeterminism sources — time.Now and the
// math/rand generators — in the simulation core. Virtual time comes
// from hw.Clock and randomness from the machine's seeded RNG; host
// time or host randomness in these packages would break the
// bit-identical-numbers contract between runs.
var NoDeterm = &analysis.Analyzer{
	Name:  "nodeterm",
	Doc:   "forbid time.Now and math/rand in the simulation core (hw, kernel, vir)",
	Match: deterministicCore,
	Run: func(pass *analysis.Pass) error {
		for _, file := range pass.Files {
			// Import names of the time package in this file ("time"
			// unless renamed).
			timeNames := map[string]bool{}
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				switch path {
				case "math/rand", "math/rand/v2":
					pass.Reportf(imp.Pos(),
						"import of %s in the simulation core (use the machine's seeded RNG)", path)
				case "time":
					name := "time"
					if imp.Name != nil {
						name = imp.Name.Name
					}
					timeNames[name] = true
				}
			}
			if len(timeNames) == 0 {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || !timeNames[id.Name] {
					return true
				}
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.Reportf(sel.Sel.Pos(),
						"%s.%s in the simulation core (virtual time comes from hw.Clock)",
						id.Name, sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	},
}

// MapRange flags map iteration that feeds printed or formatted output
// inside the simulation core. Go's map order is deliberately
// randomized, so a fmt call inside a `for k := range m` over a map
// produces run-to-run-varying transcripts; sort the keys first.
// Counting, summing, or rebuilding maps in arbitrary order is fine —
// only iterations whose body prints are flagged.
var MapRange = &analysis.Analyzer{
	Name:      "maprange",
	Doc:       "forbid map-range iteration that feeds printed output in the simulation core",
	Match:     deterministicCore,
	NeedTypes: true,
	Run: func(pass *analysis.Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				ast.Inspect(rng.Body, func(b ast.Node) bool {
					call, ok := b.(*ast.CallExpr)
					if !ok {
						return true
					}
					// A panic fires at most once and then unwinds, so a
					// fmt call feeding it cannot expose iteration order.
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						return false
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok || id.Name != "fmt" {
						return true
					}
					if strings.HasPrefix(sel.Sel.Name, "Print") ||
						strings.HasPrefix(sel.Sel.Name, "Fprint") ||
						strings.HasPrefix(sel.Sel.Name, "Sprint") ||
						strings.HasPrefix(sel.Sel.Name, "Append") {
						pass.Reportf(call.Pos(),
							"fmt.%s inside map-range iteration (map order is randomized; sort the keys first)",
							sel.Sel.Name)
					}
					return true
				})
				return true
			})
		}
		return nil
	},
}
