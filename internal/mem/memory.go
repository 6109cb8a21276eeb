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
type Memory struct {
	data []byte
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
}

// Zero clears n bytes at addr in place (CPU-style access, allocation-free).
func (m *Memory) Zero(addr int64, n int) {
	m.check(addr, n)
	clear(m.data[addr : addr+int64(n)])
}

// View returns a bounds-checked window over the backing store without
// copying. Callers must treat it as read-only; the resilient driver's
// readback audit uses it so checksumming the input image allocates nothing.
func (m *Memory) View(addr int64, n int) []byte {
	m.check(addr, n)
	return m.data[addr : addr+int64(n) : addr+int64(n)]
}

// Bytes exposes the backing store (testbench backdoor).
func (m *Memory) Bytes() []byte { return m.data }

func (m *Memory) check(addr int64, n int) {
	if addr < 0 || addr+int64(n) > int64(len(m.data)) {
		invariant.Failf("mem", "access [%d,%d) outside memory of %d bytes", addr, addr+int64(n), len(m.data))
	}
}
