// kernel-module shows the compiler boundary that makes Virtual Ghost
// work: a kernel module written in the virtual instruction set (as
// text) is loaded on both configurations. The native translator passes
// it through untouched; the Virtual Ghost translator rewrites it with
// load/store sandboxing and CFI — and the very same module code then
// cannot read ghost memory.
package main

import (
	_ "embed"
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vir"
)

// The module ships as a standalone .vir file so it can also be linted
// offline: `go run ./cmd/vircheck -instrument examples/kernel-module/spyware.vir`.
//
//go:embed spyware.vir
var moduleSource string

// sysPeek is an unused syscall number the module's loader hooks, the
// way the rootkit module interposes on read(), so the module runs in
// kernel context on the calling process's behalf.
const sysPeek = 600

func main() {
	mod, err := vir.ParseModule(moduleSource)
	if err != nil {
		panic(err)
	}
	fmt.Println("module as written:")
	fmt.Print(vir.FormatModule(mod))

	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
		sys := repro.MustNewSystem(mode)
		k := sys.Kernel
		loaded, err := k.LoadModule(mod)
		if err != nil {
			panic(err)
		}
		// Show what the translator actually emitted.
		addr, _ := loaded.Translation.Entry("peek")
		f, _ := k.HAL.CodeSpace().FuncByAddr(addr)
		fmt.Printf("\n=== %v translation ===\n%s", mode, vir.Format(f))

		// Run it against an application secret.
		k.SetSyscallHandler(sysPeek, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			v, err := k.RunModuleFunc(loaded, "peek", ic.Arg(0))
			if err != nil {
				panic(err)
			}
			return v
		})
		var got uint64
		if _, err := k.Spawn("victim", func(p *kernel.Proc) {
			va, err := p.AllocGM(1)
			if err != nil {
				panic(err)
			}
			p.Store(uint64(va), 8, 0x5ec23e7)
			got = p.Syscall(sysPeek, uint64(va))
		}); err != nil {
			panic(err)
		}
		k.RunUntilIdle()
		fmt.Printf("module's view of the ghost secret: %#x\n", got)
	}
}
