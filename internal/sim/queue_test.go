package sim

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// queueMallocs returns the exact number of heap allocations f makes.
func queueMallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Words leave in push order while the head runs ahead, the array grows,
// and compaction moves the live words back to index zero.
func TestQueueOrderAcrossCompaction(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	var q Queue[int]
	var ref []int
	next := 0
	compactions := 0
	for step := 0; step < 20_000; step++ {
		if r.IntN(5) < 3 && len(ref) < 40 {
			head := q.head
			q.Push(next)
			if head > 0 && q.head == 0 {
				compactions++
			}
			ref = append(ref, next)
			next++
		} else {
			v, ok := q.Pop()
			if ok != (len(ref) > 0) || (ok && v != ref[0]) {
				t.Fatalf("step %d: Pop = %d, %v; want the head of %v", step, v, ok, ref)
			}
			if ok {
				ref = ref[1:]
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
		}
		for i, want := range ref {
			if got := q.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no push compacted the queue")
	}
	// Compaction, not growth, absorbs the advancing head: the array stays
	// within a small factor of the 40-word occupancy bound.
	if c := cap(q.buf); c > 4*40 {
		t.Fatalf("backing array grew to %d words for at most 40 queued", c)
	}
}

// Clear empties the queue but keeps its array, so refilling it to the same
// length allocates nothing.
func TestQueueClearKeepsCapacity(t *testing.T) {
	var q Queue[[16]byte]
	for i := 0; i < 100; i++ {
		q.Push([16]byte{byte(i)})
	}
	q.Pop()
	c := cap(q.buf)
	q.Clear()
	if q.Len() != 0 || cap(q.buf) != c {
		t.Fatalf("after Clear: Len %d, cap %d; want 0, %d", q.Len(), cap(q.buf), c)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a cleared queue succeeded")
	}
	got := queueMallocs(func() {
		for i := 0; i < 100; i++ {
			q.Push([16]byte{byte(i)})
		}
	})
	if got != 0 || q.At(0)[0] != 0 || q.At(99)[0] != 99 {
		t.Fatalf("refill after Clear: %d allocations, At(0)=%d At(99)=%d", got, q.At(0)[0], q.At(99)[0])
	}
}

// A warm queue with bounded occupancy allocates nothing however far its
// head advances: the sliding traffic a DMA queue sees.
func TestQueueWarmZeroMallocs(t *testing.T) {
	var q Queue[int]
	traffic := func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 16_000; i++ {
			q.Push(i)
			q.Pop()
		}
		q.Clear()
	}
	traffic() // warm-up grows the array once
	if got := queueMallocs(traffic); got != 0 {
		t.Fatalf("warm queue made %d allocations, want 0", got)
	}
}
