package kernel

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// This file defines the snapshot image *header*: the 16 fixed bytes at
// the front of every image file. It lives in the kernel package — not
// internal/snapshot — so that ResolveExecFlags can validate a
// `-snapshot use=PATH` argument (magic, version, recorded-trailer flag)
// without importing the snapshot subsystem, which itself imports the
// kernel. The snapshot package writes and re-checks the same header
// through these helpers.

const (
	// SnapshotImageMagic is the 8-byte file signature. The \r\n catches
	// images mangled by text-mode transfers, like PNG's.
	SnapshotImageMagic = "VGSNAP\r\n"
	// SnapshotImageVersion is the current image format version. Bump on
	// any change to the header, section layout, or payload encoding.
	// v2: KernelSnap.NextPort folded into a NetSnap section (port range,
	// receive-window default, net counters, timer-id cursor); NICSnap
	// gained per-port drop counters.
	// v3: KernelSnap.LastCPU dropped (the round-robin CPU cursor of the
	// deleted single-CPU scheduler loop).
	SnapshotImageVersion = 3
	// SnapshotHeaderSize is the fixed header length:
	// magic(8) | version(4 LE) | flags(4 LE).
	SnapshotHeaderSize = 16
	// SnapshotFlagRecorded marks an image carrying a record-replay
	// trailer (-replay requires it).
	SnapshotFlagRecorded = 1 << 0
)

// SnapshotHeader is the decoded fixed header of an image file.
type SnapshotHeader struct {
	Version uint32
	Flags   uint32
}

// Recorded reports whether the image carries a record-replay trailer.
func (h SnapshotHeader) Recorded() bool { return h.Flags&SnapshotFlagRecorded != 0 }

// PutSnapshotHeader encodes a header into its fixed wire form.
func PutSnapshotHeader(h SnapshotHeader) [SnapshotHeaderSize]byte {
	var out [SnapshotHeaderSize]byte
	copy(out[:8], SnapshotImageMagic)
	binary.LittleEndian.PutUint32(out[8:12], h.Version)
	binary.LittleEndian.PutUint32(out[12:16], h.Flags)
	return out
}

// ParseSnapshotHeader decodes and validates the fixed header at the
// front of b: the magic must match and the version must be exactly
// SnapshotImageVersion (there are no compatible older versions yet).
func ParseSnapshotHeader(b []byte) (SnapshotHeader, error) {
	var h SnapshotHeader
	if len(b) < SnapshotHeaderSize {
		return h, fmt.Errorf("truncated header (%d bytes, want %d)", len(b), SnapshotHeaderSize)
	}
	if string(b[:8]) != SnapshotImageMagic {
		return h, fmt.Errorf("bad magic %q: not a snapshot image", b[:8])
	}
	h.Version = binary.LittleEndian.Uint32(b[8:12])
	h.Flags = binary.LittleEndian.Uint32(b[12:16])
	if h.Version != SnapshotImageVersion {
		return h, fmt.Errorf("image version %d, this build reads version %d", h.Version, SnapshotImageVersion)
	}
	return h, nil
}

// ProbeSnapshotHeader opens path and validates its snapshot header
// without reading the (potentially large) payload. A missing file, a
// non-image, and a version mismatch all return an error suitable for
// the shared -snapshot diagnostic.
func ProbeSnapshotHeader(path string) (SnapshotHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotHeader{}, err
	}
	defer f.Close()
	var buf [SnapshotHeaderSize]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		return SnapshotHeader{}, fmt.Errorf("truncated header: %v", err)
	}
	return ParseSnapshotHeader(buf[:])
}
