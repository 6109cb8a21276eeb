// Package deepdet seeds transitive violations for the determinism analyzer
// tests. Every offense sits in a helper outside any cycle-stepped package and
// outside any Step/Tick body (this package is not cycle-stepped and the
// helpers are not Step/Tick methods); only the call graph connects them to
// the Tick root. The unreached function proves reachability gating.
package deepdet

import (
	"math/rand"
	"time"
)

// Clock is the fixture's cycle-stepped component: its Tick method is a
// determinism root.
type Clock struct {
	cycle int64
	seen  map[string]int64
	log   []int64
}

// Tick is the root; its own body stays clean, fanning out into the
// offending helpers.
func (c *Clock) Tick() {
	c.cycle++
	c.stamp()
	c.spawn()
	c.draw()
	c.build()
	c.shuffle()
}

// stamp reads the wall clock two hops below Tick: want a finding.
func (c *Clock) stamp() {
	c.log = append(c.log, c.lowStamp())
}

func (c *Clock) lowStamp() int64 {
	return time.Now().UnixNano()
}

// spawn launches a goroutine on the Tick path: want a finding.
func (c *Clock) spawn() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

// draw consumes the global math/rand stream: want a finding.
func (c *Clock) draw() {
	c.log = append(c.log, int64(rand.Intn(16)))
}

// build constructs a second randomness source on the Tick path — legal only
// inside internal/fault: want a finding.
func (c *Clock) build() {
	src := rand.NewSource(7)
	_ = src
}

// shuffle mutates receiver state from map iteration: want a finding.
func (c *Clock) shuffle() {
	for k, v := range c.seen {
		c.seen[k] = v + 1
		c.log = append(c.log, v)
	}
}

// unreached also reads the clock but nothing on a Tick/Step/Run path calls
// it: must stay clean.
func unreached() int64 {
	return time.Now().UnixNano()
}
