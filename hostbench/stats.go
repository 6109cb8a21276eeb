package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule, or NaN for
// an empty sample (which the result assembly rejects). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fastQuantile picks a phase's figures from its faster rounds. Other guests
// on a shared machine slow the CPU for seconds at a time without stealing
// it, so CPU time does not remove them: a 40-second run can spend anywhere
// from none to half its rounds up to 45% slower. The round at this quantile
// of speed moves far less from run to run, as the program's own speed
// should.
const fastQuantile = 0.8

// fastRounds is one statistic of each round taken at fastQuantile of the
// rounds: from the fast end for a rate (higher is faster), from the other
// end for a time.
func fastRounds(rounds []phase, stat func(phase) float64, higherIsFaster bool) float64 {
	vals := make([]float64, len(rounds))
	for i, ph := range rounds {
		vals[i] = stat(ph)
	}
	if higherIsFaster {
		return quantile(vals, fastQuantile)
	}
	return quantile(vals, 1-fastQuantile)
}

// cpuTime is the CPU time the process has used so far, user and system, over
// all its threads. Linux charges a task only for the time it actually ran, so
// on a virtual machine the time the hypervisor gave the vCPU to another guest
// (steal) is not in it, while a wall clock counts it. Getrusage cannot fail
// for RUSAGE_SELF; if it did, cpuTime would read 0, the rates built on it
// would be infinite or NaN, and the result assembly would reject the run.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocBytes is the cumulative heap allocation of the process
// (runtime.MemStats.TotalAlloc, read without stopping the world).
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the peak of the live heap while a phase runs: the
// bytes the last garbage collection found reachable. Unlike the heap's
// total size, which also holds garbage not yet collected, it does not depend
// on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// medianSetup builds a system reps times, keeps the last instance, releases
// the others, and returns the median construction time in seconds. Each
// build starts from a collected heap, so every sample pays the same
// allocation costs.
func medianSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			release(v)
		}
		last = v
	}
	return last, median(times), nil
}

// perCall times f until at least minDur has elapsed (and at least once), and
// returns the mean time of one call.
func perCall(minDur time.Duration, f func() error) (time.Duration, error) {
	n := 0
	t0 := time.Now()
	for {
		if err := f(); err != nil {
			return 0, err
		}
		n++
		if el := time.Since(t0); el >= minDur {
			return el / time.Duration(n), nil
		}
	}
}

// medianPerCall is the median of reps perCall samples.
func medianPerCall(reps int, minDur time.Duration, f func() error) (time.Duration, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := perCall(minDur, f)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs)), nil
}
