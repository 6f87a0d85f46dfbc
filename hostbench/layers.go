package main

import "strings"

// The layer map is data: every package of the program, and every source
// file of the kernel, is named here with the layer it belongs to, so a
// profile frame can be charged to a layer by its symbol and file alone.
// layers_test.go fails when a package or kernel file is missing, so new
// code cannot fall silently into the unattributed bucket.

// Layer names that are not program packages.
const (
	layerRuntime      = "runtime"      // Go runtime other than the collector
	layerGC           = "gc"           // garbage collection, reported as runtime.gc_ms
	layerUnattributed = "unattributed" // frames no rule below claims
)

// layers is the reporting order of the per-layer metrics.
var layers = []string{
	"hw", "core", "shadow", "kernel", "kernel.net", "kernel.fs", "kernel.sched",
	"vir", "compiler", "libc", "vgcrypt", "snapshot", "apps", "bench",
	layerRuntime, layerUnattributed,
}

// packageLayer maps an import path to its layer. The kernel package is
// split further by kernelFileLayer.
var packageLayer = map[string]string{
	// The root package is the public boot API the applications and the
	// experiment harness call.
	"repro":                         "apps",
	"repro/internal/hw":             "hw",
	"repro/internal/core":           "core",
	"repro/internal/shadow":         "shadow",
	"repro/internal/kernel":         "kernel",
	"repro/internal/vir":            "vir",
	"repro/internal/compiler":       "compiler",
	"repro/internal/compiler/check": "compiler",
	"repro/internal/libc":           "libc",
	"repro/internal/vgcrypt":        "vgcrypt",
	"repro/internal/snapshot":       "snapshot",
	"repro/internal/apps/httpd":     "apps",
	"repro/internal/apps/lmbench":   "apps",
	"repro/internal/apps/postmark":  "apps",
	"repro/internal/apps/ssh":       "apps",
	"repro/internal/experiments":    "apps", // the experiments' load generators
	"repro/internal/attack":         "apps", // attack scenarios driven like applications
	"repro/internal/lint":           "apps", // developer tooling, never linked into a workload
	"repro/internal/lint/analysis":  "apps",
	"main":                          "bench", // this benchmark's own frames
}

// kernelFileLayer splits the kernel package by source file.
var kernelFileLayer = map[string]string{
	"net.go":          "kernel.net",
	"timerwheel.go":   "kernel.net",
	"ufs.go":          "kernel.fs",
	"bufcache.go":     "kernel.fs",
	"file.go":         "kernel.fs",
	"pipe.go":         "kernel.fs",
	"sched.go":        "kernel.sched",
	"epoch.go":        "kernel.sched",
	"api.go":          "kernel",
	"costs.go":        "kernel",
	"execflags.go":    "kernel",
	"kernel.go":       "kernel",
	"kernelcore.go":   "kernel",
	"mem.go":          "kernel",
	"modintr.go":      "kernel",
	"proc.go":         "kernel",
	"profile.go":      "kernel",
	"signal.go":       "kernel",
	"snapshotmeta.go": "kernel",
	"snapstate.go":    "kernel",
	"sysfile.go":      "kernel",
	"sysproc.go":      "kernel",
}

// frame is one resolved profile frame.
type frame struct {
	fn   string // symbol, e.g. "repro/internal/kernel.(*NetStack).handlePacket"
	file string // source path as compiled
}

// symbolPackage returns the import path of a Go symbol name.
func symbolPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// programLayer returns the layer of a frame of the program or the
// benchmark, and false for the runtime and the standard library. A
// program frame the map does not name is unattributed.
func programLayer(f frame) (string, bool) {
	pkg := symbolPackage(f.fn)
	layer, ok := packageLayer[pkg]
	switch {
	case !ok && (pkg == "repro" || strings.HasPrefix(pkg, "repro/")):
		return layerUnattributed, true
	case !ok:
		return "", false
	case pkg == "repro/internal/kernel":
		base := f.file[strings.LastIndexAny(f.file, `/\`)+1:]
		if l, ok := kernelFileLayer[base]; ok {
			return l, true
		}
		return layerUnattributed, true
	}
	return layer, true
}

func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// gcFrame reports runtime frames that belong to the garbage collector,
// including the assists a goroutine pays inside mallocgc.
func gcFrame(fn string) bool {
	switch fn {
	case "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// allocCopyFrame reports runtime frames that allocate, zero or copy
// memory on behalf of their caller; their cost is the caller's.
func allocCopyFrame(fn string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.memmove", "runtime.memclr", "runtime.newobject",
		"runtime.makeslice", "runtime.growslice", "runtime.rawbyteslice", "runtime.rawstring",
		"runtime.slicebytetostring", "runtime.stringtoslicebyte", "runtime.concatstring",
		"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.makemap", "runtime.newarray",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute charges a leaf-first stack to one layer. The leaf's own
// layer wins, except that runtime allocation and copy frames, and
// standard-library frames, are charged to the nearest program frame
// above them; collector frames go to the gc bucket and the rest of the
// runtime to its own layer.
func attribute(stack []frame) string {
	inRuntime, charged := false, false
	for _, f := range stack {
		pkg := symbolPackage(f.fn)
		if isRuntimePackage(pkg) {
			if gcFrame(f.fn) {
				return layerGC
			}
			inRuntime = true
			charged = charged || allocCopyFrame(f.fn)
			continue
		}
		if inRuntime && !charged {
			return layerRuntime
		}
		if layer, ok := programLayer(f); ok {
			return layer
		}
	}
	if inRuntime {
		return layerRuntime
	}
	return layerUnattributed
}
