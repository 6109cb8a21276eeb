package mem

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/invariant"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(256)
	m.Write(10, []byte("hello"))
	if got := m.Read(10, 5); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Read=%q", got)
	}
	var beat [BeatBytes]byte
	copy(beat[:], "0123456789abcdef")
	m.WriteBeat(32, &beat)
	var back [BeatBytes]byte
	m.ReadBeat(32, &back)
	if back != beat {
		t.Fatal("beat round trip failed")
	}
}

func TestMemoryBoundsPanic(t *testing.T) {
	m := NewMemory(16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access did not panic")
		}
	}()
	m.Read(8, 16)
}

func TestCyclesForBeats(t *testing.T) {
	tm := DefaultTiming
	if got := tm.CyclesForBeats(0); got != 0 {
		t.Fatalf("0 beats: %d", got)
	}
	if got := tm.CyclesForBeats(16); got != 43 {
		t.Fatalf("16 beats: %d want 43 (the calibrated burst window)", got)
	}
	if got := tm.CyclesForBeats(1); got != 13 {
		t.Fatalf("1 beat: %d want 13", got)
	}
	if got := tm.CyclesForBeats(32); got != 86 {
		t.Fatalf("32 beats: %d want 86", got)
	}
}

func TestControllerSingleRead(t *testing.T) {
	m := NewMemory(1024)
	m.Write(64, bytes.Repeat([]byte{0xAB}, 32))
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	p.RequestRead(64, 2)
	cycles := 0
	for !c.Idle() || !p.Idle() {
		c.Tick()
		cycles++
		for {
			if _, ok := p.NextBeat(); !ok {
				break
			}
		}
		if cycles > 1000 {
			t.Fatal("controller hung")
		}
	}
	// 2 beats: overhead 11 + 2*2 = 15.
	if p.BeatsRead != 2 {
		t.Fatalf("BeatsRead=%d", p.BeatsRead)
	}
	if cycles != 15 {
		t.Fatalf("2-beat read took %d cycles, want 15", cycles)
	}
}

func TestControllerTickMatchesAnalytic(t *testing.T) {
	for _, beats := range []int{1, 5, 16, 17, 100} {
		m := NewMemory(BeatBytes * (beats + 1))
		c := NewController(m, DefaultTiming)
		p := c.NewPort("dma")
		p.RequestRead(0, beats)
		cycles := int64(0)
		for !c.Idle() {
			c.Tick()
			cycles++
			for {
				if _, ok := p.NextBeat(); !ok {
					break
				}
			}
		}
		if want := DefaultTiming.CyclesForBeats(beats); cycles != want {
			t.Errorf("beats=%d: ticked %d cycles, analytic %d", beats, cycles, want)
		}
	}
}

func TestControllerReadData(t *testing.T) {
	m := NewMemory(1024)
	for i := 0; i < 64; i++ {
		m.Write(int64(i), []byte{byte(i)})
	}
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	p.RequestRead(16, 2)
	var got []byte
	for guard := 0; guard < 200 && len(got) < 32; guard++ {
		c.Tick()
		for {
			b, ok := p.NextBeat()
			if !ok {
				break
			}
			got = append(got, b.Data[:]...)
		}
	}
	want := m.Read(16, 32)
	if !bytes.Equal(got, want) {
		t.Fatalf("read data mismatch:\n got % x\nwant % x", got, want)
	}
}

func TestControllerWrite(t *testing.T) {
	m := NewMemory(1024)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	var b1, b2 Beat
	copy(b1.Data[:], bytes.Repeat([]byte{1}, 16))
	copy(b2.Data[:], bytes.Repeat([]byte{2}, 16))
	p.PushWriteBeat(b1)
	p.PushWriteBeat(b2)
	p.RequestWrite(128, 2)
	for guard := 0; !c.Idle() && guard < 200; guard++ {
		c.Tick()
	}
	if !bytes.Equal(m.Read(128, 16), bytes.Repeat([]byte{1}, 16)) {
		t.Fatal("first write beat wrong")
	}
	if !bytes.Equal(m.Read(144, 16), bytes.Repeat([]byte{2}, 16)) {
		t.Fatal("second write beat wrong")
	}
	if p.BeatsWritten != 2 {
		t.Fatalf("BeatsWritten=%d", p.BeatsWritten)
	}
}

func TestControllerArbitrationFairness(t *testing.T) {
	m := NewMemory(1 << 16)
	c := NewController(m, DefaultTiming)
	p1 := c.NewPort("a")
	p2 := c.NewPort("b")
	for i := 0; i < 4; i++ {
		p1.RequestRead(int64(i*256), 4)
		p2.RequestRead(int64(32768+i*256), 4)
	}
	for guard := 0; !c.Idle() && guard < 10000; guard++ {
		c.Tick()
		p1.NextBeat()
		p2.NextBeat()
	}
	if p1.BeatsRead != 16 || p2.BeatsRead != 16 {
		t.Fatalf("beats: %d/%d", p1.BeatsRead, p2.BeatsRead)
	}
	// Both ports should have accumulated comparable wait time under
	// round-robin (neither starved).
	if p1.WaitCycles == 0 || p2.WaitCycles == 0 {
		t.Fatalf("wait cycles: %d/%d — expected contention on both", p1.WaitCycles, p2.WaitCycles)
	}
}

func TestPortBookkeeping(t *testing.T) {
	m := NewMemory(1 << 12)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("x")
	if !p.Idle() || p.PendingBeats() != 0 {
		t.Fatal("fresh port not idle")
	}
	p.RequestRead(0, 3)
	p.RequestRead(64, 2)
	if p.Idle() || p.PendingBeats() != 5 {
		t.Fatalf("PendingBeats=%d want 5", p.PendingBeats())
	}
	if p.Name() != "x" {
		t.Fatalf("Name=%q", p.Name())
	}
	// Zero-beat requests are ignored.
	p.RequestRead(0, 0)
	p.RequestWrite(0, -1)
	if p.PendingBeats() != 5 {
		t.Fatal("zero-beat request enqueued")
	}
}

func TestControllerWriteStallsWithoutData(t *testing.T) {
	m := NewMemory(1024)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	p.RequestWrite(0, 1)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if p.BeatsWritten != 0 {
		t.Fatal("write completed without data")
	}
	var b Beat
	b.Data[0] = 9
	p.PushWriteBeat(b)
	for guard := 0; !c.Idle() && guard < 50; guard++ {
		c.Tick()
	}
	if p.BeatsWritten != 1 || m.Read(0, 1)[0] != 9 {
		t.Fatal("write did not complete after data arrived")
	}
}

// expectViolation runs f and requires it to panic with an invariant.Violation
// from the given module.
func expectViolation(t *testing.T, module string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no invariant violation raised")
		}
		v, ok := r.(invariant.Violation)
		if !ok {
			t.Fatalf("panicked with %v, not an invariant.Violation", r)
		}
		if v.Module != module {
			t.Fatalf("violation from module %q, want %q", v.Module, module)
		}
	}()
	f()
}

// The WFAsic AXI engines own one transfer direction each, so mixing
// directions on one port while the other direction is in flight is a client
// bug the busy guard must trip on.
func TestPortDirectionGuards(t *testing.T) {
	t.Run("read-while-write-queued", func(t *testing.T) {
		c := NewController(NewMemory(1<<12), DefaultTiming)
		p := c.NewPort("dma")
		p.PushWriteBeat(Beat{})
		p.RequestWrite(0, 1)
		expectViolation(t, "mem", func() { p.RequestRead(64, 1) })
	})
	t.Run("write-while-read-queued", func(t *testing.T) {
		c := NewController(NewMemory(1<<12), DefaultTiming)
		p := c.NewPort("dma")
		p.RequestRead(0, 1)
		expectViolation(t, "mem", func() { p.RequestWrite(64, 1) })
	})
	t.Run("read-while-write-granted", func(t *testing.T) {
		c := NewController(NewMemory(1<<12), DefaultTiming)
		p := c.NewPort("dma")
		p.RequestWrite(0, 2)
		c.Tick() // grant the write; data not yet supplied, so it stays active
		expectViolation(t, "mem", func() { p.RequestRead(64, 1) })
	})
	t.Run("same-direction-is-legal", func(t *testing.T) {
		c := NewController(NewMemory(1<<12), DefaultTiming)
		p := c.NewPort("dma")
		p.RequestRead(0, 2)
		p.RequestRead(64, 2) // back-to-back reads are the DMA's normal shape
		p2 := c.NewPort("dma2")
		p2.PushWriteBeat(Beat{})
		p2.PushWriteBeat(Beat{})
		p2.RequestWrite(0, 1)
		p2.RequestWrite(64, 1)
	})
}

// faultInjector builds an injector for controller fault tests.
func faultInjector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	j, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestControllerReadErrorLatchesFault(t *testing.T) {
	m := NewMemory(1 << 12)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	c.AttachInjector(faultInjector(t, fault.Config{Seed: 3, ReadErrorProb: 1}))
	p.RequestRead(256, 4)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if _, ok := p.NextBeat(); ok {
		t.Fatal("errored read delivered data")
	}
	f, ok := p.TakeFault()
	if !ok {
		t.Fatal("no bus fault latched")
	}
	if f.Addr != 256 || f.Write {
		t.Fatalf("fault %+v, want read at 256", f)
	}
	if _, again := p.TakeFault(); again {
		t.Fatal("fault delivered twice")
	}
	if !c.Idle() || !p.Idle() {
		t.Fatal("controller busy after an errored transaction")
	}
}

func TestControllerWriteErrorDropsBeats(t *testing.T) {
	m := NewMemory(1 << 12)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	c.AttachInjector(faultInjector(t, fault.Config{Seed: 3, WriteErrorProb: 1}))
	var b Beat
	b.Data[0] = 0xEE
	p.PushWriteBeat(b)
	p.PushWriteBeat(b)
	p.RequestWrite(512, 2)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if f, ok := p.TakeFault(); !ok || !f.Write || f.Addr != 512 {
		t.Fatalf("fault %+v ok=%v, want write at 512", f, ok)
	}
	if m.Read(512, 1)[0] != 0 {
		t.Fatal("errored write reached memory")
	}
	if p.BeatsWritten != 0 {
		t.Fatalf("BeatsWritten=%d for an errored write", p.BeatsWritten)
	}
}

func TestControllerLostGrantHangsRead(t *testing.T) {
	m := NewMemory(1 << 12)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	c.AttachInjector(faultInjector(t, fault.Config{Seed: 3, LostGrantProb: 1}))
	p.RequestRead(0, 2)
	for i := 0; i < 200; i++ {
		c.Tick()
	}
	if _, ok := p.NextBeat(); ok {
		t.Fatal("lost grant delivered data")
	}
	if _, ok := p.TakeFault(); ok {
		t.Fatal("lost grant produced an error response; it must vanish silently")
	}
	if p.BeatsRead != 0 {
		t.Fatal("lost grant counted beats")
	}
}

func TestControllerStallStormFreezesService(t *testing.T) {
	run := func(storms bool) int {
		m := NewMemory(1 << 12)
		c := NewController(m, DefaultTiming)
		p := c.NewPort("dma")
		if storms {
			c.AttachInjector(faultInjector(t, fault.Config{Seed: 9, StallStormProb: 0.2, StallStormMax: 25}))
		}
		p.RequestRead(0, 8)
		cycles := 0
		for !c.Idle() || !p.Idle() {
			c.Tick()
			cycles++
			for {
				if _, ok := p.NextBeat(); !ok {
					break
				}
			}
			if cycles > 100000 {
				t.Fatal("controller never finished")
			}
		}
		return cycles
	}
	calm := run(false)
	stormy := run(true)
	if stormy <= calm {
		t.Fatalf("storms did not slow the read: %d <= %d cycles", stormy, calm)
	}
}

func TestControllerDataFlipIsDeterministic(t *testing.T) {
	run := func() []byte {
		m := NewMemory(1 << 12)
		m.Write(0, bytes.Repeat([]byte{0x55}, 64))
		c := NewController(m, DefaultTiming)
		p := c.NewPort("dma")
		c.AttachInjector(faultInjector(t, fault.Config{Seed: 77, DataFlipProb: 0.5}))
		p.RequestRead(0, 4)
		var got []byte
		for guard := 0; guard < 500 && len(got) < 64; guard++ {
			c.Tick()
			for {
				b, ok := p.NextBeat()
				if !ok {
					break
				}
				got = append(got, b.Data[:]...)
			}
		}
		return got
	}
	first := run()
	second := run()
	if bytes.Equal(first, bytes.Repeat([]byte{0x55}, 64)) {
		t.Fatal("DataFlipProb=0.5 over 4 beats flipped nothing")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("same seed produced different flip patterns")
	}
}

func TestCancelPortAbortsActiveTransaction(t *testing.T) {
	m := NewMemory(1 << 12)
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	p.RequestRead(0, 8)
	for i := 0; i < 5; i++ {
		c.Tick() // grant and begin the transaction
	}
	c.CancelPort(p)
	if !c.Idle() || !p.Idle() {
		t.Fatal("port still busy after CancelPort")
	}
	// The port must be immediately reusable, in either direction.
	p.PushWriteBeat(Beat{})
	p.RequestWrite(0, 1)
	for guard := 0; !c.Idle() && guard < 50; guard++ {
		c.Tick()
	}
	if p.BeatsWritten != 1 {
		t.Fatal("port unusable after CancelPort")
	}
}

// Canceling a port mid-burst discards its delivered, queued and in-flight
// beats; the reused port then serves a new read and a new write exactly, with
// no stale beat from the canceled transactions leaking into either.
func TestCancelPortMidBurstThenReuse(t *testing.T) {
	m := NewMemory(1 << 12)
	for i := 0; i < 1<<11; i++ {
		m.Write(int64(i), []byte{byte(i * 7)})
	}
	c := NewController(m, DefaultTiming)
	p := c.NewPort("dma")
	p.RequestRead(0, 32)
	p.RequestRead(0x200, 16)
	// Tick into the first burst until beats are waiting undelivered.
	for guard := 0; p.delivered.Len() < 3; guard++ {
		if guard > 200 {
			t.Fatal("no beats delivered")
		}
		c.Tick()
	}
	if _, ok := p.NextBeat(); !ok {
		t.Fatal("no beat to take")
	}
	c.CancelPort(p)
	if !c.Idle() || !p.Idle() || p.PendingBeats() != 0 {
		t.Fatal("port still busy after CancelPort")
	}
	if _, ok := p.NextBeat(); ok {
		t.Fatal("a canceled read's beat survived CancelPort")
	}

	// Reuse for a read: exactly the new beats, in order.
	p.RequestRead(0x400, 4)
	var got []byte
	for guard := 0; !c.Idle() || !p.Idle(); guard++ {
		if guard > 200 {
			t.Fatal("reused read never finished")
		}
		c.Tick()
		for b, ok := p.NextBeat(); ok; b, ok = p.NextBeat() {
			got = append(got, b.Data[:]...)
		}
	}
	if want := m.Read(0x400, 4*BeatBytes); !bytes.Equal(got, want) {
		t.Fatalf("reused read:\n got % x\nwant % x", got, want)
	}

	// Cancel a write with data still queued, then reuse the port for a
	// write: only the new beats reach memory.
	before := m.Read(0x600, 4*BeatBytes)
	stale := Beat{Data: [BeatBytes]byte{0xEE}}
	for i := 0; i < 3; i++ {
		p.PushWriteBeat(stale)
	}
	p.RequestWrite(0x600, 4)
	for i := 0; i < 5; i++ {
		c.Tick() // granted, first beat not yet due
	}
	if p.writeQueue.Len() != 3 {
		t.Fatalf("%d write beats queued at cancel, want 3", p.writeQueue.Len())
	}
	c.CancelPort(p)
	fresh := Beat{Data: [BeatBytes]byte{0x5A, 0xA5}}
	p.PushWriteBeat(fresh)
	p.RequestWrite(0x700, 1)
	for guard := 0; !c.Idle(); guard++ {
		if guard > 200 {
			t.Fatal("reused write never finished")
		}
		c.Tick()
	}
	if got := m.Read(0x700, BeatBytes); !bytes.Equal(got, fresh.Data[:]) {
		t.Fatalf("reused write stored % x, want % x", got, fresh.Data[:])
	}
	if !bytes.Equal(m.Read(0x600, 4*BeatBytes), before) {
		t.Fatal("the canceled write reached memory")
	}
	if p.writeQueue.Len() != 0 || p.dropDeficit != 0 {
		t.Fatalf("write state left behind: %d queued beats, deficit %d", p.writeQueue.Len(), p.dropDeficit)
	}
}
