package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// cycleSteppedSuffixes are packages whose entire API runs inside the
// cycle-stepped simulation and must therefore be deterministic end to end.
var cycleSteppedSuffixes = []string{
	"internal/sim",
	"internal/core",
	"internal/mem",
	"internal/fault",
}

// faultPkgSuffix is the one package allowed to own randomness that fires on
// a Tick path: its Injector draws every fault decision from a single seeded
// PCG stream, which is what keeps chaos schedules bit-reproducible.
const faultPkgSuffix = "internal/fault"

// timeNondet are the time package entry points that read the wall clock or
// schedule against it. Pure-value helpers (time.Duration arithmetic,
// time.Unix on a stored stamp) stay legal.
var timeNondet = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are math/rand selectors that build an explicitly seeded
// local source — the sanctioned way to use randomness in simulator code.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// portMethodNames are the FIFO/RAM/controller port entry points: a map-order-
// dependent sequence of these calls changes which data lands where, breaking
// bit-reproducibility even when the iterated values are commutative.
var portMethodNames = map[string]bool{
	"Push":          true,
	"Pop":           true,
	"Read":          true,
	"Write":         true,
	"Poke":          true,
	"RequestRead":   true,
	"RequestWrite":  true,
	"PushWriteBeat": true,
}

// Determinism flags wall-clock time, global math/rand state, goroutine
// launches and state-mutating map iteration in cycle-stepped code. The
// simulator's contract is that a (config, input, seed) triple reproduces the
// same cycle count and the same output bytes on every run; any of these
// constructs silently breaks that.
//
// Cycle-stepped code is everything the call graph reaches from three kinds
// of root: every function of the cycle-stepped packages (internal/sim,
// internal/core, internal/mem, internal/fault), every Step/Tick method
// anywhere in the tree, and the exported Run functions and methods of the
// cycle-stepped packages (the batch drivers that own the simulation loop).
// A helper in internal/wfa that calls time.Now() two hops below Machine.Tick
// is therefore flagged, with a witness chain back to its root.
func Determinism() *Analyzer {
	return &Analyzer{
		Name:     "determinism",
		Doc:      "code reachable from cycle-stepped packages and Tick/Step/Run must not read the clock, use global math/rand, spawn goroutines, or mutate state from map iteration",
		RunGraph: runDeterminism,
	}
}

// determinismRoots returns the per-cycle entry points — Step/Tick methods and
// the cycle-stepped packages' exported Run functions — and, separately, the
// remaining declared functions of the cycle-stepped packages.
func determinismRoots(g *CallGraph) (entries, pkgFuncs []*FuncNode) {
	for _, n := range g.SortedNodes() {
		if n.Decl == nil {
			continue
		}
		cycle := isCycleSteppedPath(n.Pkg.ImportPath)
		switch {
		case isStepMethod(n.Decl), cycle && n.Name == "Run" && n.Exported:
			entries = append(entries, n)
		case cycle:
			pkgFuncs = append(pkgFuncs, n)
		}
	}
	return entries, pkgFuncs
}

func runDeterminism(g *CallGraph, _ []*Package) []Diagnostic {
	entries, pkgFuncs := determinismRoots(g)
	// onTick is the subset that runs on every simulated cycle. There even a
	// locally seeded source is a second randomness stream whose draw order
	// the fault schedule cannot account for; elsewhere in a cycle-stepped
	// package an explicitly seeded rand.New is the sanctioned form.
	onTick := Reach(entries)
	reach := Reach(append(entries, pkgFuncs...))
	var out []Diagnostic
	for _, n := range reach.Sorted() {
		tick := onTick.Contains(n)
		chain := reach.Witness(n)
		if tick {
			chain = onTick.Witness(n)
		}
		for _, pos := range n.Effects.Goroutines {
			out = append(out, diagAt(n.Pkg, pos,
				"goroutine launched in cycle-stepped code: execution must be single-threaded so cycle counts are reproducible (via %s)", chain))
		}
		for _, pos := range n.Effects.MapRangeMuts {
			out = append(out, diagAt(n.Pkg, pos,
				"range over map mutates simulator state: map iteration order is nondeterministic and breaks bit-reproducibility — iterate sorted keys instead (via %s)", chain))
		}
		for _, ec := range n.Effects.External {
			switch ec.Path {
			case "time":
				if timeNondet[ec.Name] {
					out = append(out, diagAt(n.Pkg, ec.Pos,
						"time.%s in cycle-stepped code: simulated cycles must not depend on the wall clock (via %s)", ec.Name, chain))
				}
			case "math/rand", "math/rand/v2":
				switch {
				case !randConstructors[ec.Name]:
					out = append(out, diagAt(n.Pkg, ec.Pos,
						"global rand.%s in cycle-stepped code: use an explicitly seeded source, never the shared global stream (via %s)", ec.Name, chain))
				case tick && !isFaultPkg(n.Pkg):
					out = append(out, diagAt(n.Pkg, ec.Pos,
						"rand.%s constructed on a Tick/Step path: the seeded PRNG in internal/fault is the only sanctioned randomness source there — consult a fault.Injector hook instead (via %s)", ec.Name, chain))
				}
			}
		}
	}
	return out
}

// isStepMethod reports whether fd is a Step or Tick method — the per-cycle
// entry points of a simulated component.
func isStepMethod(fd *ast.FuncDecl) bool {
	return fd.Recv != nil && (fd.Name.Name == "Step" || fd.Name.Name == "Tick")
}

// isFaultPkg reports whether p is the fault-injection package itself.
func isFaultPkg(p *Package) bool {
	return p.ImportPath == faultPkgSuffix || strings.HasSuffix(p.ImportPath, "/"+faultPkgSuffix)
}

// isMapRange reports whether the range operand's type resolved to a map.
// Unresolved types stay quiet (the lenient check's gaps must not flag).
func (p *Package) isMapRange(rs *ast.RangeStmt) bool {
	if p.Info == nil {
		return false
	}
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// rangeBodyMutatesState reports whether a range body writes receiver state
// (an assignment or ++/-- whose target is a selector rooted at recv) or
// drives a FIFO/RAM port method — the two ways iteration order becomes
// observable simulator state.
func rangeBodyMutatesState(body *ast.BlockStmt, recv string) bool {
	mutates := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if selectorRoot(l) == recv && recv != "" {
					mutates = true
				}
			}
		case *ast.IncDecStmt:
			if selectorRoot(n.X) == recv && recv != "" {
				mutates = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && portMethodNames[sel.Sel.Name] {
				mutates = true
			}
		}
		return !mutates
	})
	return mutates
}

// selectorRoot returns the root identifier of a (possibly indexed) selector
// chain: m.Regs.OutCount → "m", f.buf[i] → "f", anything else → "".
func selectorRoot(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}
