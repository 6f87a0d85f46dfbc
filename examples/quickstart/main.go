// Quickstart: boot a Virtual Ghost system, put a secret in ghost
// memory, let a hostile kernel read() path try to steal it, and watch
// the sandboxing instrumentation return kernel noise instead.
package main

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
)

// sysSteal is an unused syscall number the hostile kernel hooks, the
// way a rootkit module interposes on read().
const sysSteal = 600

func main() {
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
		sys := repro.MustNewSystem(mode)
		k := sys.Kernel
		// The hook "reads" the address it is handed, as a rootkit's
		// compiled load instruction would.
		k.SetSyscallHandler(sysSteal, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			stolen, _ := k.HAL.KLoad(p.Root(), hw.Virt(ic.Arg(0)), 8)
			return stolen
		})

		var secretVA uint64
		if _, err := k.Spawn("app", func(p *kernel.Proc) {
			l, err := libc.NewGhosting(p)
			if err != nil {
				panic(err)
			}
			// malloc() places data in ghost memory (the modified libc
			// of paper §6).
			ptr, err := l.Malloc(32)
			if err != nil {
				panic(err)
			}
			l.WriteGhost(ptr, []byte("launch codes: 0000"))
			secretVA = uint64(ptr)

			// Any system call now hands the kernel the chance to read
			// that address.
			stolen := p.Syscall(sysSteal, secretVA)
			fmt.Printf("[%-12v] kernel load of ghost address %#x -> %#016x\n",
				mode, secretVA, stolen)
		}); err != nil {
			panic(err)
		}
		k.RunUntilIdle()
	}
	fmt.Println()
	fmt.Println("Natively the kernel sees the secret bytes; under Virtual Ghost")
	fmt.Println("the sandboxing mask redirects the access into kernel space and")
	fmt.Println("the load returns nothing of the application's.")
}
