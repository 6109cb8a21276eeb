package lint

// Transitive reachability over the call graph, witness-chain rendering for
// diagnostics, and the deterministic JSON dump behind `wfasic-vet
// -dump-callgraph` (a diffable CI artifact: byte-stable given identical
// sources).

import (
	"encoding/json"
	"sort"
	"strings"
)

// Reachability is the result of a BFS from a root set: every reachable node
// plus, for each, the edge that first discovered it (for witness chains).
type Reachability struct {
	Roots []*FuncNode
	// pred maps a reachable node to its BFS predecessor; roots map to nil.
	pred map[*FuncNode]*FuncNode
}

// Reach runs a deterministic BFS from the given roots following every edge
// kind. Roots are deduplicated; expansion order is the (already
// deterministic) edge order of each node, and the frontier is processed in
// insertion order, so predecessor assignment is stable across runs.
func Reach(roots []*FuncNode) *Reachability {
	return ReachWhere(roots, nil)
}

// ReachWhere is Reach with a node filter: when follow is non-nil, the BFS
// never enters a node for which follow returns false — the node is excluded
// from the reach set and nothing below it is explored (unless reachable some
// other way). Roots are always included. The hotalloc analyzer uses this to
// stop the hot set at cold construction/reset paths.
func ReachWhere(roots []*FuncNode, follow func(*FuncNode) bool) *Reachability {
	r := &Reachability{pred: map[*FuncNode]*FuncNode{}}
	var frontier []*FuncNode
	for _, n := range roots {
		if n == nil {
			continue
		}
		if _, seen := r.pred[n]; seen {
			continue
		}
		r.pred[n] = nil
		r.Roots = append(r.Roots, n)
		frontier = append(frontier, n)
	}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, e := range n.Calls {
			if _, seen := r.pred[e.Callee]; seen {
				continue
			}
			if follow != nil && !follow(e.Callee) {
				continue
			}
			r.pred[e.Callee] = n
			frontier = append(frontier, e.Callee)
		}
	}
	return r
}

// Contains reports whether n was reached.
func (r *Reachability) Contains(n *FuncNode) bool {
	_, ok := r.pred[n]
	return ok
}

// Sorted returns every reached node in ID order.
func (r *Reachability) Sorted() []*FuncNode {
	out := make([]*FuncNode, 0, len(r.pred))
	for n := range r.pred {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Witness renders the call chain from a root to n, e.g.
// "core.(*Machine).Tick -> core.(*Machine).startJob -> core.badHelper".
// Diagnostics embed this so a deep finding is actionable without rerunning
// the analysis.
func (r *Reachability) Witness(n *FuncNode) string {
	var chain []string
	for cur := n; cur != nil; cur = r.pred[cur] {
		chain = append(chain, cur.ShortName())
		if r.pred[cur] == nil {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// --- JSON dump -------------------------------------------------------------

// callGraphDumpSchema versions the artifact; bump on any field change so CI
// diffs fail loudly instead of misparsing.
const callGraphDumpSchema = "wfasic-callgraph-v1"

type dumpEdge struct {
	To   string `json:"to"`
	Kind string `json:"kind"`
}

type dumpNode struct {
	ID           string     `json:"id"`
	File         string     `json:"file"`
	Line         int        `json:"line"`
	Calls        []dumpEdge `json:"calls,omitempty"`
	External     []string   `json:"external,omitempty"`
	GlobalReads  []string   `json:"global_reads,omitempty"`
	GlobalWrites []string   `json:"global_writes,omitempty"`
	Goroutines   int        `json:"goroutines,omitempty"`
	MapRangeMuts int        `json:"map_range_mutations,omitempty"`
	Unresolved   int        `json:"unresolved,omitempty"`
}

type dumpFile struct {
	Schema string     `json:"schema"`
	Nodes  []dumpNode `json:"nodes"`
}

// DumpJSON renders the graph as indented JSON. File paths are made relative
// to root (the module root) so the artifact is machine-independent; all
// lists are sorted and deduplicated so output is byte-stable.
func (g *CallGraph) DumpJSON(root string) ([]byte, error) {
	d := dumpFile{Schema: callGraphDumpSchema}
	for _, n := range g.SortedNodes() {
		pos := n.Pkg.Fset.Position(n.Pos)
		dn := dumpNode{
			ID:           n.ID,
			File:         relPath(root, pos.Filename),
			Line:         pos.Line,
			Goroutines:   len(n.Effects.Goroutines),
			MapRangeMuts: len(n.Effects.MapRangeMuts),
			Unresolved:   n.Effects.Unresolved,
		}
		for _, e := range n.Calls {
			dn.Calls = append(dn.Calls, dumpEdge{To: e.Callee.ID, Kind: string(e.Kind)})
		}
		sort.Slice(dn.Calls, func(i, j int) bool {
			if dn.Calls[i].To != dn.Calls[j].To {
				return dn.Calls[i].To < dn.Calls[j].To
			}
			return dn.Calls[i].Kind < dn.Calls[j].Kind
		})
		dn.Calls = dedupeEdges(dn.Calls)
		for _, ec := range n.Effects.External {
			dn.External = append(dn.External, ec.Path+"."+ec.Name)
		}
		dn.External = sortedSet(dn.External)
		for _, gu := range n.Effects.GlobalReads {
			dn.GlobalReads = append(dn.GlobalReads, GlobalName(gu.Var))
		}
		dn.GlobalReads = sortedSet(dn.GlobalReads)
		for _, gu := range n.Effects.GlobalWrites {
			dn.GlobalWrites = append(dn.GlobalWrites, GlobalName(gu.Var))
		}
		dn.GlobalWrites = sortedSet(dn.GlobalWrites)
		d.Nodes = append(d.Nodes, dn)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// --- allocation dump -------------------------------------------------------

// allocsDumpSchema versions the -dump-allocs artifact, separate from the
// call-graph dump so either can evolve without breaking the other's CI diff.
const allocsDumpSchema = "wfasic-allocs-v1"

type allocSiteJSON struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Line   int    `json:"line"`
	// Exempt marks sites the hotalloc analyzer does not report even when
	// hot: growing appends into reusable scratch fields (ScratchAppend).
	Exempt bool `json:"exempt,omitempty"`
}

type allocNodeJSON struct {
	ID      string          `json:"id"`
	File    string          `json:"file"`
	Line    int             `json:"line"`
	Hot     bool            `json:"hot,omitempty"`
	Witness string          `json:"witness,omitempty"`
	Allocs  []allocSiteJSON `json:"allocs"`
}

type allocsDumpFile struct {
	Schema string          `json:"schema"`
	Roots  []string        `json:"roots"`
	Nodes  []allocNodeJSON `json:"nodes"`
}

// DumpAllocsJSON renders every function with at least one classified
// allocation site, plus the hot-set verdict (hot flag + witness chain) the
// hotalloc analyzer derived for it. Node order is ID order, site order is
// (line, kind, detail); paths are root-relative — byte-stable given
// identical sources, the same contract as DumpJSON.
func DumpAllocsJSON(g *CallGraph, root string) ([]byte, error) {
	reach := hotSet(g)
	d := allocsDumpFile{Schema: allocsDumpSchema}
	for _, r := range reach.Roots {
		d.Roots = append(d.Roots, r.ID)
	}
	d.Roots = sortedSet(d.Roots)
	for _, n := range g.SortedNodes() {
		if len(n.Effects.Allocs) == 0 {
			continue
		}
		pos := n.Pkg.Fset.Position(n.Pos)
		dn := allocNodeJSON{
			ID:   n.ID,
			File: relPath(root, pos.Filename),
			Line: pos.Line,
			Hot:  reach.Contains(n),
		}
		if dn.Hot {
			dn.Witness = reach.Witness(n)
		}
		for _, a := range n.Effects.Allocs {
			dn.Allocs = append(dn.Allocs, allocSiteJSON{
				Kind:   a.Kind,
				Detail: a.Detail,
				Line:   n.Pkg.Fset.Position(a.Pos).Line,
				Exempt: g.ScratchAppend(a),
			})
		}
		sort.Slice(dn.Allocs, func(i, j int) bool {
			a, b := dn.Allocs[i], dn.Allocs[j]
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			return a.Detail < b.Detail
		})
		d.Nodes = append(d.Nodes, dn)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func dedupeEdges(es []dumpEdge) []dumpEdge {
	out := es[:0]
	for i, e := range es {
		if i > 0 && e == es[i-1] {
			continue
		}
		out = append(out, e)
	}
	return out
}

func sortedSet(ss []string) []string {
	sort.Strings(ss)
	out := ss[:0]
	for i, s := range ss {
		if i > 0 && s == ss[i-1] {
			continue
		}
		out = append(out, s)
	}
	return out
}
