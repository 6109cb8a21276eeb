// Package mem models the SoC memory system of Figure 3: the off-chip main
// memory and the memory controller the WFAsic DMA reaches through the
// AXI-Full bus. The controller's burst timing is the one calibrated quantity
// in the accelerator model (see Timing); everything else in the repository
// derives cycle counts structurally.
package mem

import "repro/internal/invariant"

// BeatBytes is the AXI-Full data width: 16 bytes per beat (Section 4.1).
const BeatBytes = 16

// Memory is the byte-addressable off-chip main memory.
//
// It keeps an exact dirty watermark: every byte at or past it is zero.
// Write and WriteBeat raise the mark and Zero lowers it, so clearing a
// region costs what was written there, not the size of the region — the
// resilient driver wipes the whole output tail before every attempt, while
// a typical batch dirties a few KiB of it. Bytes hands the backing store
// out for arbitrary writes, so it pins the mark at the end of memory for
// good.
type Memory struct {
	data    []byte
	dirty   int64 // watermark: data[dirty:] is all zero
	exposed bool  // Bytes was called; the mark can no longer be trusted
}

// NewMemory allocates size bytes of main memory.
func NewMemory(size int) *Memory {
	return &Memory{data: make([]byte, size)}
}

// Size returns the capacity in bytes.
func (m *Memory) Size() int { return len(m.data) }

// ReadBeat copies the 16-byte beat at addr into dst.
func (m *Memory) ReadBeat(addr int64, dst *[BeatBytes]byte) {
	m.check(addr, BeatBytes)
	copy(dst[:], m.data[addr:addr+BeatBytes])
}

// WriteBeat stores the 16-byte beat at addr.
func (m *Memory) WriteBeat(addr int64, src *[BeatBytes]byte) {
	m.check(addr, BeatBytes)
	copy(m.data[addr:addr+BeatBytes], src[:])
	m.raise(addr + BeatBytes)
}

// Read copies n bytes at addr (CPU-style access).
func (m *Memory) Read(addr int64, n int) []byte {
	m.check(addr, n)
	out := make([]byte, n)
	copy(out, m.data[addr:addr+int64(n)])
	return out
}

// Write stores b at addr (CPU-style access).
func (m *Memory) Write(addr int64, b []byte) {
	m.check(addr, len(b))
	copy(m.data[addr:addr+int64(len(b))], b)
	m.raise(addr + int64(len(b)))
}

// Zero clears n bytes at addr in place (CPU-style access, allocation-free).
// Only the part below the dirty watermark is touched; a clear that reaches
// the mark lowers it to addr.
func (m *Memory) Zero(addr int64, n int) {
	m.check(addr, n)
	end := min(addr+int64(n), m.dirty)
	if addr >= end {
		return
	}
	clear(m.data[addr:end])
	if end == m.dirty && !m.exposed {
		m.dirty = addr
	}
}

// Watermark returns the dirty watermark: every byte at or past it is zero.
// After Bytes it is the memory size.
func (m *Memory) Watermark() int64 { return m.dirty }

// View returns a bounds-checked window over the backing store without
// copying. Callers must treat it as read-only; the resilient driver's
// readback audit uses it so checksumming the input image allocates nothing.
func (m *Memory) View(addr int64, n int) []byte {
	m.check(addr, n)
	return m.data[addr : addr+int64(n) : addr+int64(n)]
}

// Bytes exposes the backing store (testbench backdoor). Writes through it
// bypass the dirty watermark, so from then on the mark stays at the end of
// memory and Zero clears every byte it is asked to.
func (m *Memory) Bytes() []byte {
	m.exposed = true
	m.dirty = int64(len(m.data))
	return m.data
}

// raise lifts the dirty watermark to cover a write ending at end.
func (m *Memory) raise(end int64) {
	if end > m.dirty {
		m.dirty = end
	}
}

func (m *Memory) check(addr int64, n int) {
	if addr < 0 || addr+int64(n) > int64(len(m.data)) {
		invariant.Failf("mem", "access [%d,%d) outside memory of %d bytes", addr, addr+int64(n), len(m.data))
	}
}
