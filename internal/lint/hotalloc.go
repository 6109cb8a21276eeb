package lint

// The hotalloc analyzer is the zero-alloc hot-path gate: no function
// reachable from the simulator's steady-state entry points may contain an
// allocation construct. The alloc-site classifier lives in allocsites.go and
// runs inside the call-graph walk; this file defines what "hot" means and
// turns reachable sites into ratcheted findings.
//
// Hot roots, by declaration shape (so fixtures and future modules qualify
// without a hard-coded list):
//
//   - every Tick or Step method — the per-cycle core (Machine.Tick and every
//     module it steps);
//   - the exported one-shot alignment entry points Align, AlignBatch and
//     BandedAlign — the per-pair steady state of the software baselines;
//   - Run methods on an Aligner receiver — the wavefront loop itself;
//   - any function whose doc comment carries //vet:hotpath — the opt-in for
//     hot paths the shapes above cannot name, such as the serving layer's
//     admission counters and token buckets.
//
// Cold pruning: reachability does not descend into construction and reset
// paths — init, New*/new*, Reset*/Clear, and functions whose doc comment
// carries //vet:coldpath — because allocating while building or recycling a
// machine is the point of those paths. Everything else reachable from a root
// is steady state: each alloc site there is reported with its witness chain
// and flows through the vet-baseline.json ratchet, so the set can shrink but
// never silently grow. One more exemption is applied here rather than in the
// classifier: a growing append into a struct field that some function in the
// module truncate-resets (f = f[:0]) is amortized scratch reuse, not growth —
// unless some function also re-slices the field from its head (f = f[k:]).
// Such a sliding queue never reuses the prefix it drops, so its appends
// re-grow as the head advances.

import (
	"strings"
)

// coldPathDirective marks a function as sanctioned allocation territory
// (//vet:coldpath on the doc comment, parsed by directives.go).
const coldPathDirective = "coldpath"

// hotPathDirective is coldPathDirective's dual: //vet:hotpath promotes a
// function to a hot root, extending the zero-alloc gate to per-pair code the
// shape rules cannot see (request admission, quota accounting).
const hotPathDirective = "hotpath"

// Hotalloc returns the allocation-discipline analyzer.
func Hotalloc() *Analyzer {
	return &Analyzer{
		Name:     "hotalloc",
		Doc:      "no allocation constructs reachable from the steady-state roots (Tick/Step, Align/AlignBatch/BandedAlign, Aligner.Run, //vet:hotpath) outside annotated cold paths",
		RunGraph: runHotalloc,
	}
}

// hotAllocRoots selects the steady-state entry points.
func hotAllocRoots(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.SortedNodes() {
		if n.Decl == nil {
			continue
		}
		if isHotAllocRoot(n) {
			roots = append(roots, n)
		}
	}
	return roots
}

func isHotAllocRoot(n *FuncNode) bool {
	name := n.Decl.Name.Name
	if n.Decl.Recv != nil && (name == "Tick" || name == "Step") {
		return true
	}
	if n.Decl.Recv == nil && n.Exported &&
		(name == "Align" || name == "AlignBatch" || name == "BandedAlign") {
		return true
	}
	if name == "Run" && strings.TrimPrefix(n.RecvType, "*") == "Aligner" {
		return true
	}
	return HasDirective(n.Decl.Doc, hotPathDirective)
}

// isColdPath reports whether a node belongs to a construction/reset path the
// hot-set propagation must not enter. Closures inherit their enclosing
// declaration's verdict.
func isColdPath(n *FuncNode) bool {
	rd := n.rootDecl()
	if rd == nil {
		return false
	}
	name := rd.Name.Name
	if name == "init" && rd.Recv == nil {
		return true
	}
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") {
		return true
	}
	if strings.HasPrefix(name, "Reset") || strings.HasPrefix(name, "reset") || name == "Clear" {
		return true
	}
	return HasDirective(rd.Doc, coldPathDirective)
}

// hotSet computes the steady-state reachability used by both the analyzer
// and the -dump-allocs artifact.
func hotSet(g *CallGraph) *Reachability {
	return ReachWhere(hotAllocRoots(g), func(n *FuncNode) bool { return !isColdPath(n) })
}

func runHotalloc(g *CallGraph, pkgs []*Package) []Diagnostic {
	reach := hotSet(g)
	var out []Diagnostic
	for _, n := range reach.Sorted() {
		chain := reach.Witness(n)
		for _, a := range n.Effects.Allocs {
			if g.ScratchAppend(a) {
				continue
			}
			out = append(out, diagAt(n.Pkg, a.Pos,
				"hot-path allocation (%s): %s — steady-state code must not allocate; preallocate, reuse scratch, or mark the function //vet:coldpath (reached via %s)",
				a.Kind, a.Detail, chain))
		}
	}
	return out
}
