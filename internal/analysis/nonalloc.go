package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NonAllocAnalyzer enforces the //demi:nonalloc annotation: the paper's
// core performance claim (§5) rests on the I/O fast path doing zero heap
// allocations per operation, and the alloc-guard benchmark in CI measures
// that only for the paths the benchmark drives. Annotated functions are
// rejected at build time if they contain:
//
//   - make/new/&T{...}/slice-or-map literals, map writes, or go statements;
//   - append not guarded by a cap() check on the destination;
//   - capturing closures (a closure that captures variables is heap-allocated);
//   - string concatenation or string<->[]byte conversions;
//   - interface conversions of non-pointer values (these box and escape);
//   - calls to functions that are neither annotated //demi:nonalloc nor
//     provably allocation-free by a transitive summary;
//   - dynamic calls (func values, interface methods) whose target cannot be
//     resolved — allowlist these after a manual audit.
//
// The transitive summary is a memoized fixed point over the module's call
// graph: a function allocates if its body contains any construct above or
// calls a function that does. Cycles resolve optimistically; functions
// without source (stdlib beyond a small audited set, external code) are
// assumed to allocate.
func NonAllocAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "nonalloc",
		Doc:  "functions annotated //demi:nonalloc must not allocate, directly or transitively",
	}
	a.Run = func(p *Pass) { runNonAlloc(p) }
	return a
}

func runNonAlloc(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasMarker(fd.Doc, "nonalloc") {
				continue
			}
			c := &nonallocChecker{m: p.Mod, pkg: p.Pkg, report: p.Reportf}
			c.checkDecl(fd)
		}
	}
}

// Allocation-summary memo states (Module.allocMemo).
const (
	allocInProgress int8 = 1 // on the current summary stack: cycle, assume clean
	allocClean      int8 = 2
	allocAllocates  int8 = 3
)

// allocates computes (memoized) whether fn may allocate, for call sites
// inside annotated functions. Annotated functions are trusted by contract:
// their own bodies are checked where they are declared.
func (m *Module) allocates(fn *types.Func) bool {
	m.index()
	if m.nonalloc[fn] {
		return false
	}
	if v := m.allocMemo[fn]; v != 0 {
		return v == allocAllocates
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return true
	}
	if pkg.Path() != m.Path && !strings.HasPrefix(pkg.Path(), m.Path+"/") {
		return !stdlibClean(fn)
	}
	fd := m.decls[fn]
	if fd == nil || fd.Body == nil {
		return true // no source: assume the worst
	}
	m.allocMemo[fn] = allocInProgress
	c := &nonallocChecker{m: m, pkg: m.declPkg[fn]}
	c.checkDecl(fd)
	if c.found {
		m.allocMemo[fn] = allocAllocates
	} else {
		m.allocMemo[fn] = allocClean
	}
	return c.found
}

// stdlibClean is the audited set of standard-library calls known not to
// allocate: bit twiddling, atomics, and fixed-width binary encoding.
func stdlibClean(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math/bits", "sync/atomic", "math":
		return true
	case "encoding/binary":
		n := fn.Name()
		return strings.HasPrefix(n, "PutUint") || strings.HasPrefix(n, "Uint")
	}
	return false
}

// A nonallocChecker walks one function body looking for allocating
// constructs. With report set it emits findings (annotated-function mode);
// with report nil it only records whether anything allocates (summary mode,
// where the walk stops at the first hit).
type nonallocChecker struct {
	m      *Module
	pkg    *Package
	decl   *ast.FuncDecl // function under check, for top-level return types
	report func(pos token.Pos, hint, format string, args ...any)
	found  bool
}

func (c *nonallocChecker) flag(pos token.Pos, hint, format string, args ...any) {
	c.found = true
	if c.report != nil {
		c.report(pos, hint, format, args...)
	}
}

func (c *nonallocChecker) checkDecl(fd *ast.FuncDecl) {
	c.decl = fd
	info := c.pkg.Info
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if c.found && c.report == nil {
			return false // summary mode: one hit settles it
		}
		switch s := n.(type) {
		case *ast.GoStmt:
			c.flag(s.Pos(), "hot-path code must not spawn goroutines", "go statement allocates a goroutine")
		case *ast.FuncLit:
			if cap := capturedVar(info, s); cap != nil {
				c.flag(s.Pos(), "hoist the closure to a named function or pass state explicitly",
					"closure captures %q and is heap-allocated", cap.Name())
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[s]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					c.flag(s.Pos(), "preallocate the slice outside the hot path", "slice literal allocates")
				case *types.Map:
					c.flag(s.Pos(), "preallocate the map outside the hot path", "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					c.flag(s.Pos(), "reuse a preallocated value instead of &T{...}",
						"&composite-literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD && isStringType(info, s.X) {
				c.flag(s.Pos(), "format into a preallocated buffer instead of concatenating",
					"string concatenation allocates")
			}
		case *ast.AssignStmt:
			c.checkAssign(s)
		case *ast.ReturnStmt:
			c.checkReturn(s, stack)
		case *ast.CallExpr:
			c.checkCall(s, stack)
		}
		return true
	})
}

// capturedVar returns a variable the closure captures from an enclosing
// function, or nil. Package-level variables are accessed directly and do
// not force a heap-allocated closure.
func capturedVar(info *types.Info, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v
			return false
		}
		return true
	})
	return captured
}

func (c *nonallocChecker) checkAssign(s *ast.AssignStmt) {
	info := c.pkg.Info
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(info, s.Lhs[0]) {
		c.flag(s.Pos(), "format into a preallocated buffer instead of concatenating",
			"string += allocates")
		return
	}
	for _, l := range s.Lhs {
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			if tv, ok := info.Types[ix.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					c.flag(l.Pos(), "map writes can trigger rehash allocation; use a preallocated structure",
						"map assignment may allocate")
				}
			}
		}
	}
	// Implicit interface conversions: concrete value assigned to an
	// interface-typed destination boxes the value.
	if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			lt, lok := info.Types[s.Lhs[i]]
			rt, rok := info.Types[s.Rhs[i]]
			if lok && rok && types.IsInterface(lt.Type) && boxes(rt.Type) {
				c.flag(s.Rhs[i].Pos(), "avoid boxing on the hot path; keep the value concrete or pass a pointer",
					"assigning non-pointer %s to interface allocates", rt.Type)
			}
		}
	}
}

// checkReturn flags returns that implicitly box a non-pointer value into an
// interface result.
func (c *nonallocChecker) checkReturn(ret *ast.ReturnStmt, stack []ast.Node) {
	info := c.pkg.Info
	sig := enclosingSignature(info, stack)
	if sig == nil {
		// Top-level return: the declaring function is not on the stack
		// (the walk starts at its body), so resolve it directly.
		if fn, ok := info.Defs[c.decl.Name].(*types.Func); ok {
			sig = fn.Type().(*types.Signature)
		}
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		res := sig.Results().At(i).Type()
		tv, ok := info.Types[r]
		if ok && types.IsInterface(res) && boxes(tv.Type) {
			c.flag(r.Pos(), "avoid boxing on the hot path; return a pointer or a concrete type",
				"returning non-pointer %s as interface allocates", tv.Type)
		}
	}
}

// enclosingSignature resolves the signature of the innermost function on
// the stack.
func enclosingSignature(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			if tv, ok := info.Types[f]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					return sig
				}
			}
			return nil
		case *ast.FuncDecl:
			if fn, ok := info.Defs[f.Name].(*types.Func); ok {
				return fn.Type().(*types.Signature)
			}
			return nil
		}
	}
	return nil
}

func (c *nonallocChecker) checkCall(call *ast.CallExpr, stack []ast.Node) {
	info := c.pkg.Info
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	// Builtin?
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(call, b.Name(), stack)
			return
		}
	}
	c.checkCallArgs(call)
	fn := staticCallee(info, call)
	if fn == nil {
		c.flag(call.Pos(), "resolve the call statically, or allowlist it after auditing the dynamic targets",
			"dynamic call %s: target cannot be proven allocation-free", exprString(call.Fun))
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		c.flag(call.Pos(), "devirtualize the call, or allowlist it after auditing all implementations",
			"interface method call %s: implementations cannot be proven allocation-free", exprString(call.Fun))
		return
	}
	if c.m.allocates(fn) {
		c.flag(call.Pos(), "annotate the callee //demi:nonalloc (and make it comply), or allowlist after audit",
			"call to %s may allocate", fnDisplay(c.m, fn))
	}
}

func (c *nonallocChecker) checkBuiltin(call *ast.CallExpr, name string, stack []ast.Node) {
	switch name {
	case "len", "cap", "copy", "delete", "panic", "min", "max", "recover", "clear":
		return
	case "make":
		c.flag(call.Pos(), "preallocate outside the hot path", "make allocates")
	case "new":
		c.flag(call.Pos(), "preallocate outside the hot path", "new allocates")
	case "append":
		if len(call.Args) > 0 && appendCapGuarded(stack, call.Args[0]) {
			return // append under `... cap(dst) ...` guard cannot grow
		}
		c.flag(call.Pos(), "guard the append with a cap() check (if len(s) < cap(s) { s = append(s, v) })",
			"append without a capacity guard may grow and allocate")
	default:
		c.flag(call.Pos(), "", "builtin %s may allocate", name)
	}
}

// appendCapGuarded reports whether an enclosing if condition mentions
// cap(<dst>) for the append destination — the preallocated-ring idiom
// `if len(s) < cap(s) { s = append(s, v) }`.
func appendCapGuarded(stack []ast.Node, dst ast.Expr) bool {
	want := types.ExprString(dst)
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" && len(call.Args) == 1 {
				if types.ExprString(call.Args[0]) == want {
					guarded = true
					return false
				}
			}
			return true
		})
		if guarded {
			return true
		}
	}
	return false
}

// checkConversion flags explicit conversions that allocate: boxing a
// non-pointer value into an interface, and string<->[]byte copies.
func (c *nonallocChecker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	info := c.pkg.Info
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return
	}
	src := tv.Type
	if types.IsInterface(target) && boxes(src) {
		c.flag(call.Pos(), "avoid boxing on the hot path; keep the value concrete or pass a pointer",
			"converting non-pointer %s to interface allocates", src)
		return
	}
	if isByteString(target, src) || isByteString(src, target) {
		c.flag(call.Pos(), "operate on the existing representation; string<->[]byte conversion copies",
			"string<->[]byte conversion allocates a copy")
	}
}

// isByteString reports a string->[]byte (or []rune) direction pair.
func isByteString(to, from types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := to.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// checkCallArgs flags implicit boxing at call boundaries: a non-pointer
// value passed where the parameter is an interface.
func (c *nonallocChecker) checkCallArgs(call *ast.CallExpr) {
	info := c.pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		at, ok := info.Types[arg]
		if ok && types.IsInterface(pt) && boxes(at.Type) {
			c.flag(arg.Pos(), "avoid boxing on the hot path; pass a pointer or devirtualize the callee",
				"passing non-pointer %s as interface argument allocates", at.Type)
		}
	}
}

// boxes reports whether converting a value of type t to an interface
// requires a heap allocation: true for every type that is not already
// pointer-shaped (pointers, maps, channels, funcs, unsafe.Pointer) and not
// nil/interface.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan:
		return false
	case *types.Basic:
		if t.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// isStringType reports whether the expression has string type.
func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// fnDisplay renders a function name for diagnostics, trimming the module
// prefix from package paths.
func fnDisplay(m *Module, fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
		return name
	}
	if pkg := fn.Pkg(); pkg != nil {
		p := strings.TrimPrefix(pkg.Path(), m.Path+"/")
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p + "." + name
	}
	return name
}
