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
// It has a fixed logical size but backs only the prefix that has been
// touched: data covers [0, len(data)) and every byte past it reads as zero.
// A write that reaches past the backing grows it geometrically, so a memory
// sized for the largest job costs neither allocation nor clearing until a
// job writes that far, and the steady state stays allocation-free once the
// first job has grown it.
//
// It also keeps an exact dirty watermark: every byte at or past it is zero.
// Write and WriteBeat raise the mark and Zero lowers it, so clearing a
// region costs what was written there, not the size of the region — the
// resilient driver wipes the whole output tail before every attempt, while
// a typical batch dirties a few KiB of it. Bytes hands the backing store
// out for arbitrary writes, so it backs the whole memory and pins the mark
// at its end for good. The mark never passes the backing.
type Memory struct {
	data    []byte
	size    int64 // logical size; data[len(data):size] reads as zero
	dirty   int64 // watermark: data[dirty:] is all zero
	exposed bool  // Bytes was called; the mark can no longer be trusted
}

// NewMemory returns size bytes of zeroed main memory. No backing is
// allocated until something is written.
func NewMemory(size int) *Memory {
	return &Memory{size: int64(size)}
}

// Size returns the capacity in bytes.
func (m *Memory) Size() int { return int(m.size) }

// ReadBeat copies the 16-byte beat at addr into dst.
func (m *Memory) ReadBeat(addr int64, dst *[BeatBytes]byte) {
	m.check(addr, BeatBytes)
	m.readAt(addr, dst[:])
}

// WriteBeat stores the 16-byte beat at addr.
func (m *Memory) WriteBeat(addr int64, src *[BeatBytes]byte) {
	m.check(addr, BeatBytes)
	m.back(addr + BeatBytes)
	copy(m.data[addr:addr+BeatBytes], src[:])
	m.raise(addr + BeatBytes)
}

// Read copies n bytes at addr (CPU-style access).
func (m *Memory) Read(addr int64, n int) []byte {
	m.check(addr, n)
	out := make([]byte, n)
	m.readAt(addr, out)
	return out
}

// Write stores b at addr (CPU-style access).
func (m *Memory) Write(addr int64, b []byte) {
	end := addr + int64(len(b))
	m.check(addr, len(b))
	m.back(end)
	copy(m.data[addr:end], b)
	m.raise(end)
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
// copying, backing the window first if it reaches past the touched prefix.
// Callers must treat it as read-only and finish with it before the memory
// is next written or cleared; the resilient driver checksums the input
// image and decodes the output region through it without allocating.
func (m *Memory) View(addr int64, n int) []byte {
	end := addr + int64(n)
	m.check(addr, n)
	m.back(end)
	return m.data[addr:end:end]
}

// Bytes exposes the backing store (testbench backdoor), backed to the full
// size. Writes through it bypass the dirty watermark, so from then on the
// mark stays at the end of memory and Zero clears every byte it is asked to.
func (m *Memory) Bytes() []byte {
	m.back(m.size)
	m.exposed = true
	m.dirty = m.size
	return m.data
}

// readAt copies the bytes at addr into dst: the backed part from data, the
// rest as zeros.
func (m *Memory) readAt(addr int64, dst []byte) {
	n := 0
	if addr < int64(len(m.data)) {
		n = copy(dst, m.data[addr:])
	}
	clear(dst[n:])
}

// back makes sure the backing covers [0, end).
func (m *Memory) back(end int64) {
	if end > int64(len(m.data)) {
		m.grow(end)
	}
}

// grow extends the backing to cover [0, end): at least minBacking bytes and
// at least double the current backing, capped at the logical size, so a
// memory reaches its working size in a few steps and then stays put.
//
//vet:coldpath
func (m *Memory) grow(end int64) {
	n := max(end, minBacking, 2*int64(len(m.data)))
	data := make([]byte, min(n, m.size))
	copy(data, m.data)
	m.data = data
}

// minBacking is the smallest backing grow allocates.
const minBacking = 64 << 10

// raise lifts the dirty watermark to cover a write ending at end.
func (m *Memory) raise(end int64) {
	if end > m.dirty {
		m.dirty = end
	}
}

func (m *Memory) check(addr int64, n int) {
	if addr < 0 || addr+int64(n) > m.size {
		invariant.Failf("mem", "access [%d,%d) outside memory of %d bytes", addr, addr+int64(n), m.size)
	}
}
