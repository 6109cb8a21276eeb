package mem

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestWatermarkMatchesNaiveMemory drives seeded random interleavings of
// Write, WriteBeat, Zero, ReadBeat, Read and View — clears that reach the
// watermark, clears that stop short of it, clears entirely above it, reads
// and views that reach past the backed prefix — against a plain []byte that
// applies every operation literally, and requires the two to agree on every
// byte after every step. The memory is just over twice minBacking and
// writes start low and spread upward, so the backing grows in steps and
// reads regularly cross its end. It also checks the contracts of the watermark
// (every byte at or past it is zero) and of the backing (watermark <=
// backing <= Size).
func TestWatermarkMatchesNaiveMemory(t *testing.T) {
	const size = 2*minBacking + 4000
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		m := NewMemory(size)
		ref := make([]byte, size)
		whole, zeros := make([]byte, size), make([]byte, size)
		span := func() (int64, int) {
			addr := rng.IntN(size)
			return int64(addr), rng.IntN(size - addr + 1)
		}
		for step := 0; step < 400; step++ {
			// Writes land below a frontier that sweeps the memory over the
			// run, so the backing grows in steps instead of all at once.
			frontier := min(size, (step+1)*size/300)
			var op string
			switch r := rng.IntN(13); {
			case r < 3:
				op = "Write"
				addr := rng.IntN(frontier)
				n := rng.IntN(min(64, size-addr) + 1)
				b := make([]byte, n)
				for i := range b {
					if rng.IntN(4) != 0 { // leave some zero bytes in the data
						b[i] = byte(rng.UintN(256))
					}
				}
				m.Write(int64(addr), b)
				copy(ref[addr:], b)
			case r < 5:
				op = "WriteBeat"
				addr := int64(rng.IntN(frontier/BeatBytes)) * BeatBytes
				var beat [BeatBytes]byte
				for i := range beat {
					beat[i] = byte(rng.UintN(256))
				}
				m.WriteBeat(addr, &beat)
				copy(ref[addr:], beat[:])
			case r < 7:
				op = "Zero(tail)"
				addr := int64(rng.IntN(size + 1))
				m.Zero(addr, size-int(addr))
				clear(ref[addr:])
			case r < 9:
				// Partial clear: ends below the mark whenever the mark
				// leaves room for one.
				op = "Zero(below mark)"
				mark := int(m.Watermark())
				if mark == 0 {
					continue
				}
				addr := rng.IntN(mark)
				n := rng.IntN(mark - addr)
				m.Zero(int64(addr), n)
				clear(ref[addr : addr+n])
			case r < 10:
				op = "Zero(span)"
				addr, n := span()
				m.Zero(addr, n)
				clear(ref[addr : addr+int64(n)])
			case r < 11:
				op = "ReadBeat"
				addr := int64(rng.IntN(size/BeatBytes)) * BeatBytes
				var beat [BeatBytes]byte
				for i := range beat {
					beat[i] = 0xa5 // ReadBeat must overwrite every byte
				}
				m.ReadBeat(addr, &beat)
				if !bytes.Equal(beat[:], ref[addr:addr+BeatBytes]) {
					t.Fatalf("seed %d step %d: ReadBeat(%d) = %x, want %x", seed, step, addr, beat, ref[addr:addr+BeatBytes])
				}
			case r < 12:
				op = "Read"
				addr, n := span()
				if got := m.Read(addr, n); !bytes.Equal(got, ref[addr:addr+int64(n)]) {
					t.Fatalf("seed %d step %d: Read(%d, %d) diverged from the naive reference", seed, step, addr, n)
				}
			default:
				// Views are rarer than reads: each one backs its window.
				op = "View"
				addr := rng.IntN(frontier)
				n := rng.IntN(min(4096, size-addr) + 1)
				if got := m.View(int64(addr), n); !bytes.Equal(got, ref[addr:addr+n]) || len(got) != n || cap(got) != n {
					t.Fatalf("seed %d step %d: View(%d, %d) diverged from the naive reference", seed, step, addr, n)
				}
			}
			m.readAt(0, whole) // Read's copy, into a reused buffer
			if !bytes.Equal(whole, ref) {
				t.Fatalf("seed %d step %d (%s): memory diverged from the naive reference", seed, step, op)
			}
			mark, backing := m.Watermark(), int64(len(m.data))
			if mark < 0 || mark > backing || backing > int64(m.Size()) {
				t.Fatalf("seed %d step %d (%s): watermark %d, backing %d, size %d: want 0 <= watermark <= backing <= size",
					seed, step, op, mark, backing, m.Size())
			}
			if !bytes.Equal(ref[mark:], zeros[mark:]) {
				t.Fatalf("seed %d step %d (%s): a nonzero byte at or past the watermark %d", seed, step, op, mark)
			}
		}
	}
}

// TestBackingGrowsOnDemand pins the lazy backing: a fresh memory backs
// nothing, reads past the backing neither grow it nor see anything but
// zeros, and a write grows it geometrically from minBacking up to the
// logical size.
func TestBackingGrowsOnDemand(t *testing.T) {
	const size = 5 * minBacking
	m := NewMemory(size)
	if got := len(m.data); got != 0 {
		t.Fatalf("fresh memory backs %d bytes, want 0", got)
	}
	var beat [BeatBytes]byte
	m.ReadBeat(size-BeatBytes, &beat)
	if got := m.Read(1000, 64); !bytes.Equal(got, make([]byte, 64)) || beat != [BeatBytes]byte{} {
		t.Fatal("unbacked memory did not read as zero")
	}
	if got := len(m.data); got != 0 {
		t.Fatalf("reads grew the backing to %d bytes", got)
	}
	for _, step := range []struct {
		writeEnd int64
		backing  int
	}{
		{1, minBacking},                    // the floor
		{minBacking, minBacking},           // still inside
		{minBacking + 1, 2 * minBacking},   // doubling
		{3*minBacking + 1, 4 * minBacking}, // doubling covers the write
		{4*minBacking + 1, size},           // capped at the logical size
	} {
		m.Write(step.writeEnd-1, []byte{1})
		if got := len(m.data); got != step.backing {
			t.Fatalf("write ending at %d: backing %d, want %d", step.writeEnd, got, step.backing)
		}
	}
	m.Zero(0, size)
	if got := len(m.data); got != size {
		t.Fatalf("Zero shrank the backing to %d", got)
	}
}

// TestBytesBacksWholeMemory checks that the testbench backdoor returns the
// full logical size, keeps what was written, and pins the watermark.
func TestBytesBacksWholeMemory(t *testing.T) {
	const size = 3*minBacking + 16
	m := NewMemory(size)
	m.Write(40, []byte("abc"))
	b := m.Bytes()
	if len(b) != m.Size() {
		t.Fatalf("Bytes() returned %d bytes, want Size() = %d", len(b), m.Size())
	}
	if !bytes.Equal(b[40:43], []byte("abc")) {
		t.Fatalf("Bytes() lost a write: %q", b[40:43])
	}
	if got := m.Watermark(); got != size {
		t.Fatalf("watermark after Bytes = %d, want %d", got, size)
	}
	b[size-1] = 7
	if got := m.Read(size-1, 1); got[0] != 7 {
		t.Fatal("a write through Bytes() is not visible to Read")
	}
}

// TestAccessPastSizeFails checks that every access kind still fails at the
// logical size, not at the end of the backing: on a fresh memory (nothing
// backed) and after a write has backed a prefix.
func TestAccessPastSizeFails(t *testing.T) {
	const size = 2*minBacking + 32
	for _, backed := range []bool{false, true} {
		m := NewMemory(size)
		if backed {
			m.Write(0, []byte{1})
		}
		var beat [BeatBytes]byte
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"ReadBeat", func() { m.ReadBeat(size-BeatBytes+1, &beat) }},
			{"WriteBeat", func() { m.WriteBeat(size, &beat) }},
			{"Read", func() { m.Read(size-4, 5) }},
			{"Write", func() { m.Write(size-1, []byte{1, 2}) }},
			{"Zero", func() { m.Zero(size-8, 9) }},
			{"View", func() { m.View(size, 1) }},
			{"negative", func() { m.Read(-1, 1) }},
		} {
			t.Run(fmt.Sprintf("backed=%v/%s", backed, c.name), func(t *testing.T) { expectViolation(t, "mem", c.f) })
		}
		if got := m.Read(size-4, 4); !bytes.Equal(got, make([]byte, 4)) {
			t.Fatalf("backed=%v: the last in-range bytes read %x", backed, got)
		}
	}
}

// TestWatermarkTracksWrites pins the exact mark: raised to the end of the
// furthest write, lowered to the start of a clear that reaches it, left in
// place by a clear that stops short of it.
func TestWatermarkTracksWrites(t *testing.T) {
	m := NewMemory(1024)
	if got := m.Watermark(); got != 0 {
		t.Fatalf("fresh memory watermark = %d, want 0", got)
	}
	m.Write(100, []byte("abc"))
	var beat [BeatBytes]byte
	m.WriteBeat(512, &beat) // an all-zero beat still counts as written
	m.Write(200, []byte("x"))
	if got := m.Watermark(); got != 512+BeatBytes {
		t.Fatalf("watermark = %d, want %d", got, 512+BeatBytes)
	}
	m.Zero(300, 10)
	if got := m.Watermark(); got != 512+BeatBytes {
		t.Fatalf("clear below the mark moved it to %d", got)
	}
	m.Zero(150, 1024-150)
	if got := m.Watermark(); got != 150 {
		t.Fatalf("watermark after tail clear = %d, want 150", got)
	}
	if got := m.Read(100, 3); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("bytes below the clear changed: %q", got)
	}
	if got := m.Read(200, 1); got[0] != 0 {
		t.Fatal("tail clear left a dirty byte")
	}
}
