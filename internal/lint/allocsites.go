package lint

// Allocation-site classification for the hotalloc analyzer (hotalloc.go).
// The call-graph walker (callgraph.go) calls into these helpers while it is
// already visiting every expression, so the classifier adds no extra pass:
// each function's effect summary grows an Allocs list of the sites where the
// compiled code may touch the heap.
//
// The classifier is deliberately syntactic-plus-types — it does not model the
// compiler's escape analysis. It errs toward reporting sites the compiler
// might stack-allocate (a non-escaping make, a closure with no captures)
// because the hot-path contract is "no allocation constructs at all", which
// survives inlining-decision churn across toolchain versions. The one place
// it errs the other way is amortized growth: appends into slices with
// preallocated capacity in scope, and appends into struct fields that some
// function in the module truncate-resets (f = f[:0]) and none re-slices from
// its head (f = f[k:]), are exempt — those are the sanctioned scratch-reuse
// patterns. scripts/escape-crosscheck.sh diffs these verdicts against
// go build -gcflags=-m to keep the approximation honest.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Alloc-site kinds. Detail strings are built from type and identifier names
// only — never positions — so baseline entries stay stable across unrelated
// line churn.
const (
	AllocMake       = "make"        // make([]T,…), make(map[K]V,…), make(chan T)
	AllocNew        = "new"         // new(T)
	AllocCompLit    = "complit"     // slice/map composite literals, &T{…}
	AllocAppendGrow = "append-grow" // append without preallocated capacity in scope
	AllocIfaceBox   = "iface-box"   // non-pointer-shaped value into an interface param
	AllocClosure    = "closure"     // func literal or method value
	AllocStringConv = "string-conv" // string <-> []byte / []rune conversion
	AllocMapWrite   = "map-write"   // m[k] = v (may grow the table)
	AllocFmt        = "fmt"         // call into package fmt (boxes + formats)
)

// AllocSite is one potential heap allocation in a function body.
type AllocSite struct {
	Kind   string
	Detail string
	Pos    token.Pos
	// Field is the struct field a growing append targets (f.buf in
	// f.buf = append(f.buf, …)), nil otherwise. The hotalloc analyzer
	// exempts the site when the field is reusable scratch (ScratchAppend).
	Field *types.Var
}

// addAlloc appends a site to a node's effect summary.
func (w *cgWalker) addAlloc(n *FuncNode, kind, detail string, pos token.Pos) {
	n.Effects.Allocs = append(n.Effects.Allocs, AllocSite{Kind: kind, Detail: detail, Pos: pos})
}

// allocTypeStr renders a type with package-name (not path) qualification,
// compact enough for diagnostics and stable across machines.
func (w *cgWalker) allocTypeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// exprString renders the small lvalue expressions the classifier names in
// details: identifiers and selector chains. Anything else is "…".
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "…"
}

// preallocScan records, flow-insensitively, every local variable bound to a
// capacity-bearing expression: a three-argument make (explicit capacity) or a
// slice expression (s[:0] over an existing backing array). Appends into these
// are the amortized-reuse idiom and are not growth sites. Run once per
// declared function, over the whole body including nested literals.
func (w *cgWalker) preallocScan(body ast.Node) {
	if w.prealloc != nil {
		return
	}
	w.prealloc = map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if !isPreallocExpr(rhs) {
			return
		}
		if obj := w.p.Info.Defs[id]; obj != nil {
			w.prealloc[obj] = true
		}
		if obj := w.p.Info.Uses[id]; obj != nil {
			w.prealloc[obj] = true
		}
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					record(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					record(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
}

// isPreallocExpr reports whether e carries its own capacity: a 3-arg make or
// a slice expression.
func isPreallocExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			return id.Name == "make" && len(x.Args) == 3
		}
	}
	return false
}

// allocBuiltin classifies make/new/append calls.
func (w *cgWalker) allocBuiltin(n *FuncNode, call *ast.CallExpr, name string) {
	switch name {
	case "make":
		if len(call.Args) > 0 {
			if tv, ok := w.p.Info.Types[call.Args[0]]; ok {
				w.addAlloc(n, AllocMake, "make("+w.allocTypeStr(tv.Type)+")", call.Pos())
			}
		}
	case "new":
		if len(call.Args) > 0 {
			if tv, ok := w.p.Info.Types[call.Args[0]]; ok {
				w.addAlloc(n, AllocNew, "new("+w.allocTypeStr(tv.Type)+")", call.Pos())
			}
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		first := ast.Unparen(call.Args[0])
		// append(buf[:0], …) is bounded reuse of buf's backing array.
		if _, ok := first.(*ast.SliceExpr); ok {
			return
		}
		// Appends into a local with preallocated capacity in scope amortize.
		if id, ok := first.(*ast.Ident); ok {
			if obj := w.p.Info.Uses[id]; obj != nil && w.prealloc[obj] {
				return
			}
		}
		site := AllocSite{
			Kind:   AllocAppendGrow,
			Detail: "append to " + exprString(first),
			Pos:    call.Pos(),
		}
		if fv := w.leafField(first); fv != nil {
			site.Field = fv.Origin()
		}
		n.Effects.Allocs = append(n.Effects.Allocs, site)
	}
}

// allocCompositeLit classifies composite literals. Slice and map literals
// always allocate backing storage; struct and array value literals only
// allocate when their address is taken, which the &T{…} path below reports.
func (w *cgWalker) allocCompositeLit(n *FuncNode, lit *ast.CompositeLit) {
	tv, ok := w.p.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		w.addAlloc(n, AllocCompLit, w.allocTypeStr(tv.Type)+"{…}", lit.Pos())
	}
}

// allocAddrLit classifies &T{…}: the literal escapes into a pointer.
func (w *cgWalker) allocAddrLit(n *FuncNode, lit *ast.CompositeLit) {
	tv, ok := w.p.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return // already reported by allocCompositeLit
	}
	w.addAlloc(n, AllocCompLit, "&"+w.allocTypeStr(tv.Type)+"{…}", lit.Pos())
}

// allocConversion classifies type conversions: string <-> []byte/[]rune copy
// their contents.
func (w *cgWalker) allocConversion(n *FuncNode, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := w.p.Info.TypeOf(call)
	src := w.p.Info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if stringSliceConv(dst, src) || stringSliceConv(src, dst) {
		w.addAlloc(n, AllocStringConv,
			w.allocTypeStr(src)+" -> "+w.allocTypeStr(dst), call.Pos())
	}
}

// stringSliceConv reports a string-to-byte/rune-slice pairing in one
// direction.
func stringSliceConv(a, b types.Type) bool {
	ab, ok := a.Underlying().(*types.Basic)
	if !ok || ab.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := b.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	eb, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return eb.Kind() == types.Byte || eb.Kind() == types.Uint8 || eb.Kind() == types.Rune || eb.Kind() == types.Int32
}

// allocBoxing classifies interface boxing at a resolved call site: every
// argument whose parameter is an interface but whose own type is neither an
// interface, nor pointer-shaped (pointers, maps, channels, funcs box for
// free), nor a compile-time constant (the compiler pre-boxes those into
// read-only data) forces a heap copy. A variadic interface parameter with at
// least one argument additionally allocates the argument slice itself.
//
// invariant.Failf is exempt: its arguments are only reachable on the failure
// path, which is by definition not steady state.
func (w *cgWalker) allocBoxing(n *FuncNode, call *ast.CallExpr, fn *types.Func) {
	if fn.Name() == "Failf" && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "/invariant") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // f(xs...) forwards an existing slice
	}
	params := sig.Params()
	nFixed := params.Len()
	var variadicElem types.Type
	if sig.Variadic() && nFixed > 0 {
		nFixed--
		if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			variadicElem = sl.Elem()
		}
	}
	variadicIface := variadicElem != nil && types.IsInterface(variadicElem)
	variadicArgs := 0
	for i, arg := range call.Args {
		var pt types.Type
		if i < nFixed {
			pt = params.At(i).Type()
		} else if variadicElem != nil {
			pt = variadicElem
			variadicArgs++
		} else {
			break
		}
		if !types.IsInterface(pt) {
			continue
		}
		tv, ok := w.p.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue // lenient loader: missing info never flags
		}
		if tv.Value != nil || types.IsInterface(tv.Type) || pointerShaped(tv.Type) {
			continue
		}
		w.addAlloc(n, AllocIfaceBox,
			w.allocTypeStr(tv.Type)+" boxed into "+w.allocTypeStr(pt)+" param of "+fn.Name(),
			arg.Pos())
	}
	if variadicIface && variadicArgs > 0 {
		w.addAlloc(n, AllocIfaceBox,
			"variadic ..."+w.allocTypeStr(variadicElem)+" slice for "+fn.Name(), call.Pos())
	}
}

// pointerShaped reports whether boxing a value of type t into an interface
// stores the value directly in the data word (no heap copy).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// allocExternal classifies calls into packages outside the module the walker
// has already decided are external. Package fmt is singled out: under the
// lenient loader its signatures are unknown, but every fmt entry point takes
// ...any and formats through reflection — a call is an allocation whether or
// not the arguments are visible.
func (w *cgWalker) allocExternal(n *FuncNode, path, name string, pos token.Pos) {
	if path == "fmt" {
		w.addAlloc(n, AllocFmt, "fmt."+name, pos)
	}
}

// allocMapWrite classifies m[k] = v: inserting may grow the table. Called
// from assign() for each lvalue.
func (w *cgWalker) allocMapWrite(n *FuncNode, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	t := w.p.Info.TypeOf(ix.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		w.addAlloc(n, AllocMapWrite, "write to "+exprString(ix.X), lhs.Pos())
	}
}

// recordReslice classifies a re-slice of a field onto itself. f = f[:n]
// (any high bound) truncate-resets f: appends into it reuse its backing
// array. f = f[k:] re-slices its head away instead (a sliding queue): the
// dropped prefix is never reused, so appends keep growing fresh arrays as
// the head advances. Both are registered module-wide for ScratchAppend.
func (w *cgWalker) recordReslice(field *types.Var, rhs ast.Expr) {
	se, ok := ast.Unparen(rhs).(*ast.SliceExpr)
	if !ok {
		return
	}
	base := w.leafField(se.X)
	if base == nil || base.Origin() != field {
		return
	}
	if se.Low != nil && !isZeroConst(w.p.Info, se.Low) {
		w.b.g.headSlicedFields[field] = true
		return
	}
	w.b.g.truncResetFields[field] = true
}

// isZeroConst reports whether e is the constant 0.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

// ScratchAppend reports whether a is a growing append into reusable scratch,
// the sanctioned amortized pattern: a struct field that some function in the
// module truncate-resets (f = f[:n]) and none re-slices from its head
// (f = f[k:]).
func (g *CallGraph) ScratchAppend(a AllocSite) bool {
	return a.Kind == AllocAppendGrow && a.Field != nil &&
		g.truncResetFields[a.Field] && !g.headSlicedFields[a.Field]
}
