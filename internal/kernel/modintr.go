package kernel

import (
	"fmt"
	"strings"
)

// IntrinsicHandler implements one kernel service callable from module
// IR. The args slice may be arena-backed by the execution engine and is
// only valid for the duration of the call — handlers must copy anything
// they keep.
type IntrinsicHandler func(k *Kernel, args []uint64) (uint64, error)

// installIntrinsics builds the kernel-service linkage table for loaded
// modules (the kernel symbols a FreeBSD module would resolve against)
// once at boot, so intrinsic dispatch is a single map lookup rather
// than a string switch per call.
func (k *Kernel) installIntrinsics() {
	k.intrinsics = map[string]IntrinsicHandler{
		"klog_acc": func(k *Kernel, args []uint64) (uint64, error) {
			// Accumulate 8 little-endian bytes toward a log line.
			v := args[0]
			for i := 0; i < 8; i++ {
				b := byte(v >> (8 * i))
				if b != 0 {
					k.modLogBuf = append(k.modLogBuf, b)
				}
			}
			return 0, nil
		},
		"klog_flush": func(k *Kernel, args []uint64) (uint64, error) {
			// Emit the accumulated bytes to the system log.
			k.Console().Printf("kernel: %s", string(k.modLogBuf))
			k.modLogBuf = nil
			return 0, nil
		},
		"cur_pid": func(k *Kernel, args []uint64) (uint64, error) {
			if p := k.current(); p != nil {
				return uint64(p.PID), nil
			}
			return 0, nil
		},
		"panic": func(k *Kernel, args []uint64) (uint64, error) {
			return 0, fmt.Errorf("kernel: module panic (%d)", args[0])
		},
		// Inline assembly effects (only reachable on the native
		// configuration; the Virtual Ghost translator refuses such
		// modules). Supported gadgets:
		"asm:read_cr3": func(k *Kernel, args []uint64) (uint64, error) {
			return uint64(k.M.MMU.Root()), nil
		},
		"asm:cli": asmNop,
		"asm:sti": asmNop,
		"asm:nop": asmNop,
	}
}

func asmNop(k *Kernel, args []uint64) (uint64, error) { return 0, nil }

// RegisterIntrinsic adds (or replaces) a kernel service available to
// module code, returning the previous handler if any. Tests and
// extension modules use it the same way SetSyscallHandler extends the
// syscall table.
func (k *Kernel) RegisterIntrinsic(name string, h IntrinsicHandler) IntrinsicHandler {
	old := k.intrinsics[name]
	k.intrinsics[name] = h
	return old
}

// moduleIntrinsics dispatches a module's call to a kernel service.
func (k *Kernel) moduleIntrinsics(name string, args []uint64) (uint64, error) {
	if h, ok := k.intrinsics[name]; ok {
		return h(k, args)
	}
	if len(name) > 4 && strings.HasPrefix(name, "asm:") {
		// Unknown assembly gadgets execute as no-ops, like unmodelled
		// instructions on real hardware.
		return 0, nil
	}
	return 0, fmt.Errorf("kernel: unresolved module symbol %q", name)
}
