package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// TestWatermarkMatchesNaiveMemory drives seeded random interleavings of
// Write, WriteBeat and Zero — clears that reach the watermark, clears that
// stop short of it, clears entirely above it — against a plain []byte that
// applies every operation literally, and requires the two to agree on every
// byte after every step. It also checks the watermark's own contract: every
// byte at or past it is zero.
func TestWatermarkMatchesNaiveMemory(t *testing.T) {
	const size = 4096
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		m := NewMemory(size)
		ref := make([]byte, size)
		span := func() (int64, int) {
			addr := rng.IntN(size)
			return int64(addr), rng.IntN(size - addr + 1)
		}
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.IntN(10); {
			case r < 3:
				op = "Write"
				addr, n := span()
				n = min(n, 64)
				b := make([]byte, n)
				for i := range b {
					if rng.IntN(4) != 0 { // leave some zero bytes in the data
						b[i] = byte(rng.UintN(256))
					}
				}
				m.Write(addr, b)
				copy(ref[addr:], b)
			case r < 5:
				op = "WriteBeat"
				addr := int64(rng.IntN(size/BeatBytes)) * BeatBytes
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
			default:
				op = "Zero(span)"
				addr, n := span()
				m.Zero(addr, n)
				clear(ref[addr : addr+int64(n)])
			}
			if got := m.Read(0, size); !bytes.Equal(got, ref) {
				t.Fatalf("seed %d step %d (%s): memory diverged from the naive reference", seed, step, op)
			}
			mark := m.Watermark()
			if mark < 0 || mark > size {
				t.Fatalf("seed %d step %d (%s): watermark %d outside [0, %d]", seed, step, op, mark, size)
			}
			for i, b := range ref[mark:] {
				if b != 0 {
					t.Fatalf("seed %d step %d (%s): byte %d = %#x at or past the watermark %d", seed, step, op, int(mark)+i, b, mark)
				}
			}
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
