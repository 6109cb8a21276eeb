package core

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// mallocs returns the exact number of heap allocations f makes.
// testing.AllocsPerRun would return a truncated per-call average, under
// which fewer allocations than calls read as zero.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMachineRunAllocs is the runtime half of the hotalloc contract: after
// one warm-up job has grown every retained buffer (SeqRAM words, wavefront
// pools, range trackers, outbox, collector pad scratch, the per-job maps),
// re-running the same job, plus an idle tail, makes exactly the pinned
// number of heap allocations. No tracer is attached (tracing is a documented
// allocating slow path).
//
// The counts are not zero, for two reasons. The sliding-slice queues
// (sim.FIFO's queue, mem.Port's delivered, the DMA write buffer) re-slice
// their head away (q = q[1:]) and re-grow on append as their heads advance.
// And backtrace mode allocates one packed buffer per origin block in
// PackOriginBlock, which escapes into the Aligner's outbox. Fixing either
// cause must lower these pins; any other change to a count is a real change
// to the simulator's allocations. (The beats the CRC sees no longer count:
// the Extractor and the Collector checksum a copy in a receiver-owned
// array, so no beat parameter moves to the heap.)
func TestMachineRunAllocs(t *testing.T) {
	cases := []struct {
		name string
		bt   bool
		want uint64
	}{
		{"nbt", false, 172},
		{"bt", true, 2240},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			g := seqgen.New(71, 72)
			set := &seqio.InputSet{}
			for i := 0; i < 4; i++ {
				set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 256, 0.05))
			}
			img, err := set.BuildImage()
			if err != nil {
				t.Fatal(err)
			}
			m, _, err := NewStandaloneMachine(cfg, 1<<22)
			if err != nil {
				t.Fatal(err)
			}
			inputAddr := int64(0)
			outputAddr := (int64(len(img)) + mem.BeatBytes + 15) &^ 15

			// Warm-up: the first job takes every growth path once.
			driveJob(t, m, set, tc.bt, inputAddr, outputAddr)

			// Measured: restart the identical job (configuration and start
			// are outside the measured region, like a driver reusing a
			// machine), run it to completion, then tick the idle machine.
			configureJob(t, m, set, tc.bt, inputAddr, outputAddr)
			var runErr error
			got := mallocs(func() {
				_, runErr = m.Run(1 << 30)
				for i := 0; i < 1000; i++ {
					m.Tick()
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if m.Regs.Errored() {
				t.Fatal("measured job errored")
			}
			if got != tc.want {
				t.Errorf("Machine.Run plus an idle tail made %d allocations, want exactly %d", got, tc.want)
			}
		})
	}
}
