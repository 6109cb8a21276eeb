package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFIFOShowAhead(t *testing.T) {
	f := NewFIFO[int](4)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO state wrong")
	}
	if !f.Push(1) || !f.Push(2) {
		t.Fatal("push failed")
	}
	// Staged data is not visible before Tick.
	if _, ok := f.Front(); ok {
		t.Fatal("staged data visible before Tick")
	}
	f.Tick()
	if v, ok := f.Front(); !ok || v != 1 {
		t.Fatalf("Front=%v,%v", v, ok)
	}
	// Front does not consume.
	if v, _ := f.Front(); v != 1 {
		t.Fatal("Front consumed data")
	}
	if v, _ := f.Pop(); v != 1 {
		t.Fatal("Pop wrong order")
	}
	if v, _ := f.Pop(); v != 2 {
		t.Fatal("Pop wrong order")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop on empty succeeded")
	}
}

func TestFIFOFull(t *testing.T) {
	f := NewFIFO[int](2)
	f.Push(1)
	f.Push(2)
	if f.Push(3) {
		t.Fatal("push beyond depth accepted")
	}
	if f.StallFull != 1 {
		t.Fatalf("StallFull=%d", f.StallFull)
	}
	f.Tick()
	f.Pop()
	if !f.Push(3) {
		t.Fatal("push after pop rejected")
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		fifo := NewFIFO[uint64](8)
		var pushed, popped []uint64
		next := uint64(0)
		for step := 0; step < 500; step++ {
			if r.IntN(2) == 0 && !fifo.Full() {
				fifo.Push(next)
				pushed = append(pushed, next)
				next++
			}
			if r.IntN(2) == 0 {
				if v, ok := fifo.Pop(); ok {
					popped = append(popped, v)
				}
			}
			fifo.Tick()
		}
		for fifo.Len() > 0 {
			v, _ := fifo.Pop()
			popped = append(popped, v)
			fifo.Tick()
		}
		if len(popped) != len(pushed) {
			return false
		}
		for i := range popped {
			if popped[i] != pushed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOResetAndStats(t *testing.T) {
	f := NewFIFO[int](4)
	f.Push(1)
	f.Push(2)
	f.Tick()
	f.Pop()
	if f.Pushes != 2 || f.Pops != 1 {
		t.Fatalf("stats: pushes=%d pops=%d", f.Pushes, f.Pops)
	}
	if f.MaxOccupancy != 2 {
		t.Fatalf("MaxOccupancy=%d", f.MaxOccupancy)
	}
	f.Reset()
	if !f.Empty() || f.Pushes != 0 || f.MaxOccupancy != 0 {
		t.Fatal("Reset incomplete")
	}
	if f.Depth() != 4 {
		t.Fatalf("Depth=%d", f.Depth())
	}
}
