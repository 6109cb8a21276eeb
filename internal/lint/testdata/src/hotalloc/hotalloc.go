// Package hotalloc seeds one case per allocation-site kind for the hotalloc
// analyzer tests, plus the negative space around them: cold constructor and
// reset paths, a //vet:coldpath directive, a //vet:hotpath directive root,
// the two amortized-append exemptions (truncate-reset field, preallocated
// local), a sliding queue the field exemption must not cover, a constant that
// boxes for free, an unreached allocating function, and a //vet:allow
// waiver. The expected findings are pinned by
// internal/lint/hotalloc_test.go.
package hotalloc

import "fmt"

// Machine mimics a cycle-stepped component whose Tick is a hot root.
type Machine struct {
	name    string
	buf     []int        // plain growing field: appends flag
	scratch []byte       // truncate-reset scratch: appends are exempt
	queue   []int        // sliding queue: truncate-reset but head-sliced, appends flag
	arr     [8]int       // backing array for the prealloc-local exemption
	seen    map[int]bool // map writes flag
	hook    func()
}

// NewMachine allocates freely: constructors are cold by name.
func NewMachine() *Machine {
	return &Machine{
		buf:  make([]int, 0, 16),
		seen: make(map[int]bool),
	}
}

// Reset allocates freely too: Reset*/reset* paths are cold by name.
func (m *Machine) Reset() {
	m.seen = make(map[int]bool)
	m.buf = nil
}

// recycle truncate-resets the scratch field, sanctioning scratchSite's
// append as amortized reuse.
func (m *Machine) recycle() {
	m.scratch = m.scratch[:0]
	m.queue = m.queue[:0]
}

// rebuild allocates but is annotated cold, so reachability stops here.
//
//vet:coldpath fixture: sanctioned allocation territory below a hot root
func (m *Machine) rebuild() {
	m.buf = make([]int, 0, 32)
}

// Tick is the hot root: every helper below is steady state unless a cold
// rule stops the walk.
func (m *Machine) Tick() {
	m.makeSite()
	m.freshSite()
	m.litSite()
	m.growSite()
	m.scratchSite()
	m.queueSite()
	m.preallocLocal()
	m.boxSite(len(m.name))
	m.variadicSite(len(m.name))
	m.constBoxSite()
	m.fmtSite()
	m.closureSite()
	m.methodValueSite()
	m.convSite()
	m.mapSite()
	m.waivedSite()
	m.Reset()   // cold by name: the makes inside never flag
	m.rebuild() // cold by directive
	m.recycle() // truncate-reset: no alloc inside
}

func (m *Machine) makeSite() {
	_ = make([]int, 8)
}

func (m *Machine) freshSite() {
	_ = new(Machine)
}

func (m *Machine) litSite() {
	_ = []int{1, 2, 3}
	_ = &Machine{}
}

func (m *Machine) growSite() {
	m.buf = append(m.buf, 1)
}

// scratchSite's append is exempt: recycle() truncate-resets m.scratch.
func (m *Machine) scratchSite() {
	m.scratch = append(m.scratch, 'x')
}

// queueSite pops by re-slicing the head away, so the array behind the
// dropped prefix is never reused: its append flags even though recycle()
// truncate-resets m.queue.
func (m *Machine) queueSite() {
	m.queue = m.queue[1:]
	m.queue = append(m.queue, 1)
}

// preallocLocal's append is exempt: the local is bound to a slice expression
// over an existing backing array, so its capacity is already in scope.
func (m *Machine) preallocLocal() {
	tmp := m.arr[:0]
	tmp = append(tmp, 1)
	_ = tmp
}

func (m *Machine) boxSite(v int) {
	take(v)
}

func take(x any) { _ = x }

func (m *Machine) variadicSite(v int) {
	logf(v)
}

func logf(vs ...any) { _ = vs }

// constBoxSite boxes only compile-time constants, which the compiler
// pre-boxes into read-only data: no finding.
func (m *Machine) constBoxSite() {
	take(42)
}

func (m *Machine) fmtSite() {
	_ = fmt.Sprintf("%s", m.name)
}

func (m *Machine) closureSite() {
	f := func() {}
	f()
}

func (m *Machine) methodValueSite() {
	m.hook = m.bump
}

func (m *Machine) bump() { m.name = "" }

func (m *Machine) convSite() {
	_ = []byte(m.name)
}

func (m *Machine) mapSite() {
	m.seen[1] = true
}

func (m *Machine) waivedSite() {
	_ = make([]byte, 4) //vet:allow hotalloc fixture: sanctioned waiver example
}

// Pipe exercises the Step-method root shape.
type Pipe struct {
	tmp []int
}

// Step is a hot root; its growing append flags with a one-hop witness.
func (p *Pipe) Step() {
	p.tmp = append(p.tmp, 0)
}

// Align exercises the exported one-shot entry-point root shape.
func Align() []int {
	return make([]int, 4)
}

// Score allocates identically but is not a root and nothing hot reaches it:
// no finding.
func Score() []int {
	return make([]int, 4)
}

// bucket mimics a serving-layer token bucket: its hot path is named by
// directive because no shape rule can see it.
type bucket struct {
	tokens float64
	trace  []int
}

// admit is a hot root by //vet:hotpath — the opt-in for serving-layer
// admission code.
//
//vet:hotpath
func (b *bucket) admit() bool {
	b.note()
	return b.tokens > 0
}

// note's growing append flags with an admit -> note witness chain.
func (b *bucket) note() {
	b.trace = append(b.trace, 1)
}

// witnessLog mimics the integrity layer's per-pair result witnesses: a
// cheap bounds gate named hot by directive (no shape rule can see a
// one-shot checker). Its reject-path append is exactly the mistake the real
// witness code avoids with static errors, and must flag even though the
// happy path is allocation-free.
type witnessLog struct {
	max     int
	rejects []int
}

// witnessGate is a hot root by //vet:hotpath — the integrity-witness root
// shape: called once per delivered pair.
//
//vet:hotpath
func (w *witnessLog) witnessGate(score int) bool {
	if score < 0 || score > w.max {
		w.rejects = append(w.rejects, score)
		return false
	}
	return w.witnessReplay(score)
}

// witnessReplay is reachable from the hot gate but pure arithmetic: the
// analyzer must stay silent on it.
func (w *witnessLog) witnessReplay(score int) bool {
	acc := 0
	for i := 0; i < score; i++ {
		acc += i
	}
	return acc >= 0
}
