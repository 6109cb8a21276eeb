package lint

// This file builds the interprocedural layer of wfasic-vet: a package-set
// call graph over go/types with a direct effect summary per function. The
// graph powers the determinism, isolation, perfmono and hotalloc analyzers
// (determinism.go, isolation.go, perfmono.go, hotalloc.go) and is dumpable
// as a deterministic JSON artifact (effects.go) so CI can diff it.
//
// Construction is a class-hierarchy-style approximation, tuned to err on the
// side of extra edges without exploding:
//
//   - static calls and concrete method calls resolve through go/types to
//     their exact target;
//   - interface method calls fan out to every module type implementing the
//     interface (CHA);
//   - a function literal gets a "closure" edge from its enclosing function,
//     whether or not the enclosing function actually invokes it;
//   - referencing a function as a value (method value, function assigned or
//     passed) adds a "ref" edge from the referencing function and registers
//     the target as an *escapee*;
//   - a call through a function-typed struct field resolves to the functions
//     ever stored into that field (tracked through assignments and keyed
//     composite literals); when a store was unresolvable the field is opaque
//     and the call falls back to every escapee with a matching signature;
//   - a call through any other function-typed value (local, parameter,
//     result) resolves to every escapee whose signature matches.
//
// Soundness caveats (also in DESIGN.md): calls that go/types could not
// resolve at all (lenient-loader gaps) produce no edges and are only counted
// per node, matching the suite's rule that missing type info must never
// flag; reflection and code outside the loaded package set are invisible;
// stdlib behavior is opaque except for the recorded external call names.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how a call-graph edge was derived.
type EdgeKind string

const (
	EdgeStatic  EdgeKind = "static"  // direct call of a known function/method
	EdgeIface   EdgeKind = "iface"   // interface dispatch, CHA-approximated
	EdgeClosure EdgeKind = "closure" // enclosing function -> its function literal
	EdgeRef     EdgeKind = "ref"     // function referenced as a value
	EdgeDyn     EdgeKind = "dyn"     // call through a function value, escapee-matched
)

// CallEdge is one resolved callee of a function.
type CallEdge struct {
	Callee *FuncNode
	Kind   EdgeKind
	Pos    token.Pos
}

// ExternalCall is a call into a package outside the loaded set (stdlib under
// the lenient loader). Only the qualifier and name are known.
type ExternalCall struct {
	Path string // import path, e.g. "time"
	Name string // selector name, e.g. "Now"
	Pos  token.Pos
}

// GlobalUse is one read or write of a package-level variable.
type GlobalUse struct {
	Var *types.Var
	Pos token.Pos
}

// FieldWrite is one assignment to a struct field, kept for the perfmono
// analyzer. Op is "=", "+=", "-=", "++", "--" or the token string of rarer
// compound operators; Negative reports an operand that is provably negative
// (a negative constant or a unary minus).
type FieldWrite struct {
	Field    *types.Var // Origin()-normalized field object
	Op       string
	Negative bool
	Pos      token.Pos
}

// Effects is the direct (non-transitive) effect summary of one function.
type Effects struct {
	GlobalReads  []GlobalUse
	GlobalWrites []GlobalUse
	Goroutines   []token.Pos
	MapRangeMuts []token.Pos
	External     []ExternalCall
	FieldWrites  []FieldWrite
	// Allocs are the function's potential heap-allocation sites, classified
	// by allocsites.go for the hotalloc analyzer.
	Allocs []AllocSite
	// Unresolved counts call sites that produced no edge because type
	// information was missing; an honesty figure for the dump.
	Unresolved int
}

// FuncNode is one function in the call graph: a declared function or method,
// or a function literal (closure) nested inside one.
type FuncNode struct {
	ID   string // stable: pkgpath.Name, pkgpath.(Recv).Name, parent$N
	Name string // bare name; closures use "$N"
	Pkg  *Package
	Decl *ast.FuncDecl // nil for closures
	Lit  *ast.FuncLit  // nil for declared functions
	// Parent is the enclosing function for closures, nil otherwise.
	Parent   *FuncNode
	RecvType string // syntactic receiver type name, "" for functions/closures
	Exported bool
	Pos      token.Pos
	Calls    []CallEdge
	Effects  Effects
}

// ShortName renders a node for diagnostics: pkg.(Recv).Name or pkg.Name,
// with closure suffixes kept ("core.(*Machine).startJob$1").
func (n *FuncNode) ShortName() string {
	if n.Parent != nil {
		return n.Parent.ShortName() + "$" + strings.TrimPrefix(n.Name, "$")
	}
	base := n.Pkg.Name + "."
	if n.RecvType != "" {
		base += "(" + n.RecvType + ")."
	}
	return base + n.Name
}

// CallGraph is the package-set call graph plus the module-wide facts the
// analyzers share.
type CallGraph struct {
	Nodes  map[string]*FuncNode
	order  []string // sorted node IDs
	byFunc map[*types.Func]*FuncNode
	pkgs   []*Package
	// mutatedGlobals holds every package-level var some non-init function
	// writes; reads of anything else are reads of effectively-immutable
	// state (sentinel errors, lookup tables) and stay legal.
	mutatedGlobals map[*types.Var]bool
	modulePaths    map[string]bool
	// truncResetFields holds every struct field some function truncates onto
	// itself (f = f[:0]); headSlicedFields every one some function re-slices
	// from its head (f = f[k:]). A field in the first set and not the second
	// is sanctioned reusable scratch, exempt from hotalloc's append-grow
	// findings (allocsites.go).
	truncResetFields map[*types.Var]bool
	headSlicedFields map[*types.Var]bool
}

// SortedNodes returns the nodes in ID order.
func (g *CallGraph) SortedNodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.Nodes[id])
	}
	return out
}

// NodeOf returns the node of a declared function object, nil when unknown.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	if n, ok := g.byFunc[fn]; ok {
		return n
	}
	return g.byFunc[fn.Origin()]
}

// BuildCallGraph constructs the graph over the given packages. The result is
// deterministic: node IDs, edge order and effect order depend only on the
// source text and the (sorted) package order.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:            map[string]*FuncNode{},
		byFunc:           map[*types.Func]*FuncNode{},
		pkgs:             pkgs,
		mutatedGlobals:   map[*types.Var]bool{},
		modulePaths:      map[string]bool{},
		truncResetFields: map[*types.Var]bool{},
		headSlicedFields: map[*types.Var]bool{},
	}
	for _, p := range pkgs {
		g.modulePaths[p.ImportPath] = true
	}
	b := &cgBuilder{
		g:            g,
		escapees:     map[string][]*FuncNode{},
		fieldFns:     map[*types.Var][]*FuncNode{},
		opaqueFields: map[*types.Var]bool{},
		litNodes:     map[*ast.FuncLit]*FuncNode{},
	}
	// Pass 1: a node per declared function and per function literal.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				b.declareFunc(p, fd)
			}
		}
	}
	// Pass 2: walk bodies — direct effects, static/iface/closure/ref edges,
	// escapee and field-store indices, pending dynamic call sites.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := g.NodeOf(funcObj(p, fd))
				if n == nil {
					continue
				}
				w := &cgWalker{b: b, p: p, file: f, callFuns: map[ast.Expr]bool{}}
				w.walkBody(n, fd.Body)
			}
		}
	}
	// Pass 3: resolve calls through function values against the indices.
	b.resolvePending()
	// Module-wide mutability of package-level vars (init functions and the
	// declarations themselves do not count: state only written during
	// initialization is immutable at fleet runtime).
	for _, id := range g.order {
		n := g.Nodes[id]
		if n.rootDecl() != nil && n.rootDecl().Name.Name == "init" && n.rootDecl().Recv == nil {
			continue
		}
		for _, gw := range n.Effects.GlobalWrites {
			g.mutatedGlobals[gw.Var] = true
		}
	}
	return g
}

// rootDecl returns the declared function enclosing this node (itself for
// declared functions, the outermost parent for closures).
func (n *FuncNode) rootDecl() *ast.FuncDecl {
	for n.Parent != nil {
		n = n.Parent
	}
	return n.Decl
}

// MutatedGlobal reports whether any non-init function in the module writes v.
func (g *CallGraph) MutatedGlobal(v *types.Var) bool { return g.mutatedGlobals[v] }

// cgBuilder carries the cross-pass build state.
type cgBuilder struct {
	g            *CallGraph
	escapees     map[string][]*FuncNode // signature string -> escaping func values
	fieldFns     map[*types.Var][]*FuncNode
	opaqueFields map[*types.Var]bool
	litNodes     map[*ast.FuncLit]*FuncNode
	pending      []pendingCall
}

// pendingCall is a call through a function value, resolved after all
// escapees and field stores are known.
type pendingCall struct {
	from  *FuncNode
	pos   token.Pos
	sig   string     // normalized signature, "" when unknown
	field *types.Var // non-nil for calls through a struct field
}

// funcObj resolves a declaration to its types.Func.
func funcObj(p *Package, fd *ast.FuncDecl) *types.Func {
	if p.Info == nil {
		return nil
	}
	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// declareFunc creates the node for fd and for every function literal in its
// body, numbering literals in pre-order so IDs are stable.
func (b *cgBuilder) declareFunc(p *Package, fd *ast.FuncDecl) {
	recv := ""
	if fd.Recv != nil {
		recv = recvTypeString(fd)
	}
	id := p.ImportPath + "."
	if recv != "" {
		id += "(" + recv + ")."
	}
	id += fd.Name.Name
	// Build-tagged twin files (internal/invariant) declare the same name
	// twice in the parsed package; keep both nodes distinguishable.
	for i := 2; b.g.Nodes[id] != nil; i++ {
		id = fmt.Sprintf("%s#%d", strings.SplitN(id, "#", 2)[0], i)
	}
	n := &FuncNode{
		ID:       id,
		Name:     fd.Name.Name,
		Pkg:      p,
		Decl:     fd,
		RecvType: recv,
		Exported: fd.Name.IsExported(),
		Pos:      fd.Pos(),
	}
	b.g.Nodes[id] = n
	b.g.order = append(b.g.order, id)
	if fn := funcObj(p, fd); fn != nil {
		b.g.byFunc[fn] = n
		b.g.byFunc[fn.Origin()] = n
	}
	if fd.Body != nil {
		b.declareLits(p, n, fd.Body)
	}
}

// declareLits creates closure nodes nested under parent, in pre-order.
func (b *cgBuilder) declareLits(p *Package, parent *FuncNode, body ast.Node) {
	count := 0
	var walk func(node ast.Node, encl *FuncNode)
	walk = func(node ast.Node, encl *FuncNode) {
		ast.Inspect(node, func(nd ast.Node) bool {
			lit, ok := nd.(*ast.FuncLit)
			if !ok {
				return true
			}
			count++
			ln := &FuncNode{
				ID:     fmt.Sprintf("%s$%d", parent.ID, count),
				Name:   fmt.Sprintf("$%d", count),
				Pkg:    p,
				Lit:    lit,
				Parent: encl,
				Pos:    lit.Pos(),
			}
			b.g.Nodes[ln.ID] = ln
			b.g.order = append(b.g.order, ln.ID)
			b.litNodes[lit] = ln
			walk(lit.Body, ln)
			return false // children handled by the recursive walk
		})
	}
	walk(body, parent)
	sort.Strings(b.g.order)
}

// recvTypeString renders a syntactic receiver type ("*Machine", "FIFO[T]"
// collapses to "FIFO").
func recvTypeString(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	prefix := ""
	if star, ok := t.(*ast.StarExpr); ok {
		prefix = "*"
		t = star.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return prefix + x.Name
	case *ast.IndexExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return prefix + id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return prefix + id.Name
		}
	}
	return prefix + "?"
}

// addEdge appends a call edge, skipping exact duplicates at the same site.
func (b *cgBuilder) addEdge(from, to *FuncNode, kind EdgeKind, pos token.Pos) {
	if from == nil || to == nil {
		return
	}
	for _, e := range from.Calls {
		if e.Callee == to && e.Kind == kind && e.Pos == pos {
			return
		}
	}
	from.Calls = append(from.Calls, CallEdge{Callee: to, Kind: kind, Pos: pos})
}

// registerEscapee records a function value that escaped into a variable,
// field, argument or return value, keyed by normalized signature.
func (b *cgBuilder) registerEscapee(sig string, n *FuncNode) {
	if n == nil {
		return
	}
	for _, e := range b.escapees[sig] {
		if e == n {
			return
		}
	}
	b.escapees[sig] = append(b.escapees[sig], n)
}

// sigString normalizes a function type for escapee matching. Receivers are
// already stripped from method-value types by go/types.
func sigString(t types.Type) string {
	sig, ok := t.(*types.Signature)
	if !ok {
		return ""
	}
	return types.TypeString(sig, func(p *types.Package) string { return p.Path() })
}

// resolvePending connects calls through function values: field calls to the
// functions stored into that field, everything else (and opaque fields) to
// the escapees with a matching signature.
func (b *cgBuilder) resolvePending() {
	for _, pc := range b.pending {
		if pc.field != nil && !b.opaqueFields[pc.field] {
			targets := b.fieldFns[pc.field]
			if len(targets) == 0 {
				pc.from.Effects.Unresolved++
				continue
			}
			for _, t := range targets {
				b.addEdge(pc.from, t, EdgeDyn, pc.pos)
			}
			continue
		}
		targets := b.escapees[pc.sig]
		if pc.sig == "" || len(targets) == 0 {
			pc.from.Effects.Unresolved++
			continue
		}
		for _, t := range targets {
			b.addEdge(pc.from, t, EdgeDyn, pc.pos)
		}
	}
}

// chaTargets returns the module methods implementing (iface, name), in
// deterministic package/type order.
func (b *cgBuilder) chaTargets(iface *types.Interface, name string) []*FuncNode {
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, p := range b.g.pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		names := scope.Names() // already sorted
		for _, tn := range names {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			fobj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, p.Types, name)
			fn, ok := fobj.(*types.Func)
			if !ok {
				continue
			}
			if n := b.g.NodeOf(fn); n != nil && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// cgWalker walks one declared function's body, attributing statements to the
// innermost enclosing function node (switching nodes at function literals).
type cgWalker struct {
	b        *cgBuilder
	p        *Package
	file     *ast.File
	callFuns map[ast.Expr]bool // expressions in call position (no ref edge)
	writeIDs map[*ast.Ident]bool
	// prealloc holds locals bound to capacity-bearing expressions (3-arg
	// make, slice expressions); appends into them are not growth sites.
	prealloc map[types.Object]bool
}

func (w *cgWalker) walkBody(n *FuncNode, body ast.Node) {
	if w.writeIDs == nil {
		w.writeIDs = map[*ast.Ident]bool{}
	}
	w.preallocScan(body)
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			ln := w.b.litNodes[x]
			if ln == nil {
				return false
			}
			w.addAlloc(n, AllocClosure, "func literal", x.Pos())
			w.b.addEdge(n, ln, EdgeClosure, x.Pos())
			if t, ok := w.p.Info.Types[x]; ok {
				w.b.registerEscapee(sigString(t.Type), ln)
			}
			w.walkBody(ln, x.Body)
			return false
		case *ast.GoStmt:
			n.Effects.Goroutines = append(n.Effects.Goroutines, x.Pos())
		case *ast.RangeStmt:
			recv := ""
			if rd := n.rootDecl(); rd != nil {
				recv = receiverIdent(rd)
			}
			if w.p.isMapRange(x) && rangeBodyMutatesState(x.Body, recv) {
				n.Effects.MapRangeMuts = append(n.Effects.MapRangeMuts, x.Pos())
			}
		case *ast.CallExpr:
			w.call(n, x)
		case *ast.AssignStmt:
			w.assign(n, x)
		case *ast.KeyValueExpr:
			// Keyed composite literals storing function values into fields
			// (&Pipeline{stage: double}) — wherever the literal appears:
			// assignment, return, call argument.
			if key, ok := x.Key.(*ast.Ident); ok {
				if fv, ok := w.p.Info.Uses[key].(*types.Var); ok && fv.IsField() {
					w.recordFieldStore(fv.Origin(), x.Value)
				}
			}
		case *ast.IncDecStmt:
			w.incDec(n, x)
		case *ast.CompositeLit:
			w.allocCompositeLit(n, x)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, v := w.globalTarget(x.X); v != nil {
					w.writeIDs[id] = true
					n.Effects.GlobalWrites = append(n.Effects.GlobalWrites, GlobalUse{Var: v, Pos: id.Pos()})
				}
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					w.allocAddrLit(n, cl)
				}
			}
		case *ast.SelectorExpr:
			// A method value (x.M outside call position) allocates a bound
			// closure; calls were registered in callFuns before descent.
			if !w.callFuns[ast.Expr(x)] {
				if sel, ok := w.p.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
					w.addAlloc(n, AllocClosure, "method value "+exprString(x), x.Pos())
				}
			}
		case *ast.Ident:
			w.useIdent(n, x)
		}
		return true
	})
}

// call resolves one call expression into edges / external calls / pendings.
func (w *cgWalker) call(n *FuncNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	w.callFuns[fun] = true
	switch f := fun.(type) {
	case *ast.FuncLit:
		// The closure edge from walkBody covers immediate invocation.
	case *ast.Ident:
		switch obj := w.p.Info.Uses[f].(type) {
		case *types.Func:
			w.staticEdge(n, obj, call)
		case *types.Builtin:
			w.allocBuiltin(n, call, obj.Name())
			// delete(m, k) and copy(dst, src) mutate their first argument.
			if (obj.Name() == "delete" || obj.Name() == "copy") && len(call.Args) > 0 {
				if id, v := w.globalTarget(call.Args[0]); v != nil {
					w.writeIDs[id] = true
					n.Effects.GlobalWrites = append(n.Effects.GlobalWrites, GlobalUse{Var: v, Pos: id.Pos()})
				}
			}
		case *types.TypeName:
			// conversion, not a call
			w.allocConversion(n, call)
		case *types.Var:
			w.b.pending = append(w.b.pending, pendingCall{from: n, pos: call.Pos(), sig: sigString(obj.Type())})
		default:
			if obj == nil {
				n.Effects.Unresolved++
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := w.p.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					n.Effects.Unresolved++
					return
				}
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					for _, t := range w.b.chaTargets(iface, fn.Name()) {
						w.b.addEdge(n, t, EdgeIface, call.Pos())
					}
					w.allocBoxing(n, call, fn)
					return
				}
				w.staticEdge(n, fn, call)
				w.globalRecvWrite(n, f, fn)
			case types.FieldVal:
				fv, _ := sel.Obj().(*types.Var)
				if fv == nil {
					n.Effects.Unresolved++
					return
				}
				w.b.pending = append(w.b.pending, pendingCall{
					from: n, pos: call.Pos(), sig: sigString(fv.Type()), field: fv.Origin(),
				})
			}
			return
		}
		// No selection: a package-qualified call (pkg.F), a promoted
		// method through type info, a conversion (pkg.T(x)), or
		// unresolvable.
		if fn, ok := w.p.Info.Uses[f.Sel].(*types.Func); ok {
			w.staticEdge(n, fn, call)
			return
		}
		if _, ok := w.p.Info.Uses[f.Sel].(*types.TypeName); ok {
			w.allocConversion(n, call)
			return
		}
		if v, ok := w.p.Info.Uses[f.Sel].(*types.Var); ok {
			// Call through a package-level function variable.
			w.b.pending = append(w.b.pending, pendingCall{from: n, pos: call.Pos(), sig: sigString(v.Type())})
			return
		}
		if base, ok := f.X.(*ast.Ident); ok {
			if path := w.p.pkgPathOf(w.file, base); path != "" && !w.b.g.modulePaths[path] {
				n.Effects.External = append(n.Effects.External, ExternalCall{Path: path, Name: f.Sel.Name, Pos: call.Pos()})
				w.allocExternal(n, path, f.Sel.Name, call.Pos())
				return
			}
		}
		n.Effects.Unresolved++
	default:
		// call of a call's result, index expression, etc.: a conversion via
		// a type expression ([]byte(s)) or a function value with only its
		// type known.
		if tv, ok := w.p.Info.Types[fun]; ok {
			if tv.IsType() {
				w.allocConversion(n, call)
				return
			}
			w.b.pending = append(w.b.pending, pendingCall{from: n, pos: call.Pos(), sig: sigString(tv.Type)})
		} else {
			n.Effects.Unresolved++
		}
	}
}

// staticEdge adds an edge to a known function object; calls into packages
// outside the module are recorded as external. Module-internal targets with
// a trusted signature additionally get their arguments checked for interface
// boxing (allocsites.go).
func (w *cgWalker) staticEdge(n *FuncNode, fn *types.Func, call *ast.CallExpr) {
	if t := w.b.g.NodeOf(fn); t != nil {
		w.b.addEdge(n, t, EdgeStatic, call.Pos())
		w.allocBoxing(n, call, fn)
		return
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if path != "" && !w.b.g.modulePaths[path] {
		n.Effects.External = append(n.Effects.External, ExternalCall{Path: path, Name: fn.Name(), Pos: call.Pos()})
		w.allocExternal(n, path, fn.Name(), call.Pos())
		return
	}
	n.Effects.Unresolved++
}

// globalRecvWrite records a pointer-receiver method call on a package-level
// variable as a write (x.Lock() on a global mutex mutates it).
func (w *cgWalker) globalRecvWrite(n *FuncNode, sel *ast.SelectorExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
		return
	}
	if id, v := w.globalTarget(sel.X); v != nil {
		w.writeIDs[id] = true
		n.Effects.GlobalWrites = append(n.Effects.GlobalWrites, GlobalUse{Var: v, Pos: id.Pos()})
	}
}

// assign handles global writes, counter-field writes and function-valued
// field stores.
func (w *cgWalker) assign(n *FuncNode, as *ast.AssignStmt) {
	op := as.Tok.String()
	compound := as.Tok != token.ASSIGN && as.Tok != token.DEFINE
	for i, lhs := range as.Lhs {
		w.allocMapWrite(n, lhs)
		if id, v := w.globalTarget(lhs); v != nil {
			w.writeIDs[id] = true
			n.Effects.GlobalWrites = append(n.Effects.GlobalWrites, GlobalUse{Var: v, Pos: id.Pos()})
			if compound {
				n.Effects.GlobalReads = append(n.Effects.GlobalReads, GlobalUse{Var: v, Pos: id.Pos()})
			}
		}
		if fv := w.leafField(lhs); fv != nil {
			neg := false
			if compound && len(as.Rhs) == 1 {
				neg = w.negativeOperand(as.Rhs[0])
			}
			n.Effects.FieldWrites = append(n.Effects.FieldWrites, FieldWrite{
				Field: fv.Origin(), Op: op, Negative: neg, Pos: lhs.Pos(),
			})
			// Function stored into a function-typed field.
			if !compound && i < len(as.Rhs) {
				w.recordFieldStore(fv.Origin(), as.Rhs[i])
				w.recordReslice(fv.Origin(), as.Rhs[i])
			}
		}
	}
}

// recordFieldStore resolves a function value stored into a field; an
// unresolvable store makes the field opaque (dynamic calls through it fall
// back to signature matching).
func (w *cgWalker) recordFieldStore(field *types.Var, value ast.Expr) {
	if _, isSig := field.Type().Underlying().(*types.Signature); !isSig {
		return
	}
	if t := w.funcValueNode(value); t != nil {
		for _, e := range w.b.fieldFns[field] {
			if e == t {
				return
			}
		}
		w.b.fieldFns[field] = append(w.b.fieldFns[field], t)
		return
	}
	if id, ok := ast.Unparen(value).(*ast.Ident); ok && id.Name == "nil" {
		return
	}
	w.b.opaqueFields[field] = true
}

// funcValueNode resolves an expression to the node of the function it
// denotes (literal, named function, or method value), nil when it is not a
// directly resolvable function value.
func (w *cgWalker) funcValueNode(e ast.Expr) *FuncNode {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return w.b.litNodes[x]
	case *ast.Ident:
		if fn, ok := w.p.Info.Uses[x].(*types.Func); ok {
			return w.b.g.NodeOf(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := w.p.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return w.b.g.NodeOf(fn)
			}
		}
		if fn, ok := w.p.Info.Uses[x.Sel].(*types.Func); ok {
			return w.b.g.NodeOf(fn)
		}
	}
	return nil
}

// incDec records ++/-- on globals and struct fields.
func (w *cgWalker) incDec(n *FuncNode, st *ast.IncDecStmt) {
	op := st.Tok.String()
	if id, v := w.globalTarget(st.X); v != nil {
		w.writeIDs[id] = true
		n.Effects.GlobalWrites = append(n.Effects.GlobalWrites, GlobalUse{Var: v, Pos: id.Pos()})
		n.Effects.GlobalReads = append(n.Effects.GlobalReads, GlobalUse{Var: v, Pos: id.Pos()})
	}
	if fv := w.leafField(st.X); fv != nil {
		n.Effects.FieldWrites = append(n.Effects.FieldWrites, FieldWrite{
			Field: fv.Origin(), Op: op, Pos: st.X.Pos(),
		})
	}
}

// useIdent records reads of package-level variables and ref edges for
// function values referenced outside call position.
func (w *cgWalker) useIdent(n *FuncNode, id *ast.Ident) {
	switch obj := w.p.Info.Uses[id].(type) {
	case *types.Var:
		if w.isPkgLevel(obj) && !w.writeIDs[id] {
			n.Effects.GlobalReads = append(n.Effects.GlobalReads, GlobalUse{Var: obj, Pos: id.Pos()})
		}
	case *types.Func:
		// Ref edges only for uses outside call position; the selector's Sel
		// of a method call also resolves to the Func, so skip idents whose
		// enclosing selector is in call position (handled via callFuns on
		// both the selector and the ident's parent — the Inspect order
		// guarantees calls are seen before their children).
		if w.callFuns[ast.Expr(id)] || w.selParentInCall(id) {
			return
		}
		if t := w.b.g.NodeOf(obj); t != nil {
			w.b.addEdge(n, t, EdgeRef, id.Pos())
			w.b.registerEscapee(sigString(obj.Type()), t)
			// A method value's expression type has the receiver stripped;
			// register under that signature too so field calls match.
			if tv, ok := w.p.Info.Types[ast.Expr(id)]; ok {
				w.b.registerEscapee(sigString(tv.Type), t)
			}
		}
	}
}

// selParentInCall reports whether id is the Sel of a selector that is itself
// in call position.
func (w *cgWalker) selParentInCall(id *ast.Ident) bool {
	for expr := range w.callFuns {
		if sel, ok := expr.(*ast.SelectorExpr); ok && sel.Sel == id {
			return true
		}
	}
	return false
}

// isPkgLevel reports whether v is a package-level variable.
func (w *cgWalker) isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// globalTarget finds the package-level variable a (possibly nested) lvalue
// expression ultimately writes: GlobalVar, GlobalVar.Field, pkg.Var[i], ….
// It returns the identifier denoting the variable for position reporting.
func (w *cgWalker) globalTarget(e ast.Expr) (*ast.Ident, *types.Var) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := w.p.Info.Uses[x.Sel].(*types.Var); ok && w.isPkgLevel(v) {
				return x.Sel, v
			}
			e = x.X
		case *ast.Ident:
			if v, ok := w.p.Info.Uses[x].(*types.Var); ok && w.isPkgLevel(v) {
				return x, v
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// leafField resolves the struct field a selector lvalue writes (the leaf of
// the chain: m.rdPort.BeatsRead -> BeatsRead), nil for non-field targets.
func (w *cgWalker) leafField(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			// Indexing loses the field identity: f.counts[i] writes an
			// element, not the field itself.
			return nil
		case *ast.SelectorExpr:
			if sel, ok := w.p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if fv, ok := sel.Obj().(*types.Var); ok {
					return fv
				}
			}
			if fv, ok := w.p.Info.Uses[x.Sel].(*types.Var); ok && fv.IsField() {
				return fv
			}
			return nil
		default:
			return nil
		}
	}
}

// negativeOperand reports whether e is provably negative: a negative
// constant, or a unary minus over anything.
func (w *cgWalker) negativeOperand(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := w.p.Info.Types[e]; ok && tv.Value != nil {
		if s := tv.Value.String(); strings.HasPrefix(s, "-") {
			return true
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		return true
	}
	return false
}

// GlobalName renders a package-level variable for diagnostics and the dump.
func GlobalName(v *types.Var) string {
	if v.Pkg() == nil {
		return v.Name()
	}
	return v.Pkg().Path() + "." + v.Name()
}
