// Package lint implements wfasic-vet, the repo's project-specific static
// analysis suite. It is built purely on the standard library (go/ast,
// go/parser, go/types) so it runs anywhere the Go toolchain runs, with no
// module downloads.
//
// The analyzers encode invariants that generic linters cannot know:
//
//   - determinism: cycle-stepped simulator code must stay bit-reproducible —
//     no wall-clock time, no global math/rand, no goroutines, no map
//     iteration that mutates simulator state — in the cycle-stepped
//     packages, in every Tick/Step method, and in everything the call graph
//     reaches from them or from the cycle-stepped Run entry points.
//   - panicpolicy: library code asserts through internal/invariant, never
//     through raw panic().
//   - magicoffset: register offsets and beat-sized buffers use the named
//     constants from internal/core and internal/mem, so the Section 4 memory
//     formats cannot silently drift.
//   - errpath: exported functions that return an error must not discard a
//     callee's error with the blank identifier.
//   - tickphase: Tick/Step methods follow the two-phase discipline of
//     registered RTL — read pre-cycle state, commit via next-state shadows —
//     enforced by the def-use dataflow engine in dataflow.go.
//   - regmap: the Reg* constants, their // W:/R: annotations, the RegFile
//     switch arms and the internal/soc driver must agree (module-level).
//   - doccomment: every package carries a package doc comment — the durable
//     statement of what it models and which paper section it implements.
//   - isolation: no function reachable from the cycle-stepped simulator API
//     reads or writes package-level mutable state — the static precondition
//     for running fleets of Machines with zero locks (callgraph.go).
//   - perfmono: writes to perf-registered counter fields reachable from the
//     simulator are monotone (+=/++ with non-negative operands) outside the
//     annotated reset paths.
//   - hotalloc: no allocation constructs (make/new, composite literals,
//     growing appends, interface boxing, closures, string<->[]byte
//     conversions, map writes, fmt calls) reachable from the steady-state
//     roots outside init/New*/Reset*///vet:coldpath cold paths
//     (allocsites.go, hotalloc.go).
//   - suppress: every //vet:allow comment must still mask a finding; stale
//     suppressions fail the build.
//
// A finding can be suppressed for a line by placing a
//
//	//vet:allow <analyzer> [reason]
//
// comment on the same line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyzer is one named check. Run inspects a single package; RunModule (for
// cross-artifact checks like regmap) sees every loaded package at once;
// RunGraph (for the interprocedural checks: determinism, isolation,
// perfmono, hotalloc) additionally receives the package-set call graph, built once per
// CheckModule invocation and shared. The suppress analyzer has none of the
// three: it is evaluated by CheckModule itself, after all other findings
// exist.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Diagnostic
	RunModule func(pkgs []*Package) []Diagnostic
	RunGraph  func(g *CallGraph, pkgs []*Package) []Diagnostic
}

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		PanicPolicy(),
		MagicOffset(),
		ErrPath(),
		TickPhase(),
		RegMap(),
		DocComment(),
		Isolation(),
		PerfMono(),
		Hotalloc(),
		Suppress(),
	}
}

// Check runs the given analyzers over one package. Module-level analyzers see
// a one-package module; prefer CheckModule for a full tree.
func Check(p *Package, analyzers []*Analyzer) []Diagnostic {
	return CheckModule([]*Package{p}, analyzers)
}

// CheckModule runs the given analyzers over all packages, drops suppressed
// findings, reports stale //vet:allow comments (when the suppress analyzer is
// active), and returns the rest deduplicated and sorted by
// (file, line, column, analyzer, message) — byte-stable across runs so CI
// diffs and baseline files do not churn.
func CheckModule(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	allows := collectAllows(pkgs)
	suppressActive := false

	// The call graph is built lazily: only when an active analyzer needs it,
	// and at most once per CheckModule call.
	var graph *CallGraph
	lazyGraph := func() *CallGraph {
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		return graph
	}

	var raw []Diagnostic
	for _, a := range analyzers {
		if a.Name == suppressName {
			suppressActive = true
			continue
		}
		var ds []Diagnostic
		if a.Run != nil {
			for _, p := range pkgs {
				ds = append(ds, a.Run(p)...)
			}
		}
		if a.RunModule != nil {
			ds = append(ds, a.RunModule(pkgs)...)
		}
		if a.RunGraph != nil {
			ds = append(ds, a.RunGraph(lazyGraph(), pkgs)...)
		}
		for _, d := range ds {
			d.Analyzer = a.Name
			raw = append(raw, d)
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if !allows.cover(d) {
			out = append(out, d)
		}
	}
	if suppressActive {
		active := map[string]bool{}
		for _, a := range analyzers {
			active[a.Name] = true
		}
		// Pass 1: ordinary comments. Filtering these findings may consume
		// //vet:allow suppress comments, so those are audited second.
		for _, d := range staleAllows(allows, active, false) {
			d.Analyzer = suppressName
			if !allows.cover(d) {
				out = append(out, d)
			}
		}
		for _, d := range staleAllows(allows, active, true) {
			d.Analyzer = suppressName
			if !allows.cover(d) {
				out = append(out, d)
			}
		}
	}
	sortDiagnostics(out)
	return dedupeDiagnostics(out)
}

// sortDiagnostics orders findings by (file, line, column, analyzer, message).
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupeDiagnostics removes exact duplicates from a sorted slice (two
// analyzers or two files of one package can surface the same finding).
func dedupeDiagnostics(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// allowComment is one parsed //vet:allow comment. A comment covers findings
// on its own line and the line below it (trailing and standalone placement);
// used tracks whether it masked anything, which the suppress analyzer audits.
type allowComment struct {
	file string
	line int // the comment's own line
	col  int
	name string
	used bool
}

// allowIndex maps "file\x00line" to the comments covering that line.
type allowIndex struct {
	comments []*allowComment
	byLine   map[string][]*allowComment
}

func allowKey(file string, line int) string {
	return file + "\x00" + fmt.Sprintf("%d", line)
}

// cover reports whether a comment suppresses d, marking every matching
// comment as used.
func (ai *allowIndex) cover(d Diagnostic) bool {
	hit := false
	for _, c := range ai.byLine[allowKey(d.Pos.Filename, d.Pos.Line)] {
		if c.name == "*" || c.name == d.Analyzer {
			c.used = true
			hit = true
		}
	}
	return hit
}

// collectAllows gathers //vet:allow comments across all packages.
func collectAllows(pkgs []*Package) *allowIndex {
	ai := &allowIndex{byLine: map[string][]*allowComment{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := ParseDirective(c.Text)
					if !ok {
						continue
					}
					name, ok := d.AllowTarget()
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					ac := &allowComment{file: pos.Filename, line: pos.Line, col: pos.Column, name: name}
					ai.comments = append(ai.comments, ac)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := allowKey(pos.Filename, line)
						ai.byLine[key] = append(ai.byLine[key], ac)
					}
				}
			}
		}
	}
	return ai
}

// diag builds a Diagnostic at a node's position.
func (p *Package) diag(node ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(node.Pos()),
		Message: fmt.Sprintf(format, args...),
	}
}
