package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// OwnershipAnalyzer enforces the paper's explicit zero-copy buffer
// ownership contract (§3.1, §4.2) on *memory.Buf values:
//
//  1. Every buffer obtained from the DMA heap (Heap.Alloc, Heap.TryAlloc,
//     memory.CopyFrom, memory.TryCopyFrom) must be freed, pushed, returned,
//     or stored — a buffer that reaches no consuming use leaks its slot.
//  2. A return statement between the allocation and the buffer's first
//     consuming use leaks it on that path (the compile-time twin of the
//     chaos soak's "no leaked buffers" invariant).
//  3. A failed Push/PushTo does NOT transfer ownership: the error branch
//     of a push must free the buffer (or consume it some other way) before
//     bailing out.
//  4. A buffer that has been pushed is owned by the library OS until the
//     qtoken completes: writing through it after the push (copy into its
//     Bytes, indexed stores) races the device DMA (§4.2: UAF protection
//     does not include write protection).
//
// The memory package itself is exempt — it is the allocator and
// manipulates slot ownership by design.
//
// Since the interprocedural engine (cfg.go, summary.go) the analyzer is
// path- and call-graph-aware:
//
//   - producers include module helpers whose results carry a freshly-owned
//     buffer (OwnedResults), so `b, err := c.copyIn(p)` is tracked like a
//     direct allocation;
//   - a buffer passed to a helper that only borrows it (ParamBorrows) is
//     NOT consumed — leaks through read-only helpers are caught;
//   - a helper summarized ParamConsumesOnSuccess (a push-like transfer) is
//     held to the push contract at its call sites: the error branch must
//     free the buffer;
//   - leak detection walks the control-flow graph instead of comparing
//     source positions, so a consume on one branch no longer excuses a
//     leak on the other;
//   - helpers that consume a buffer parameter on some same-class exit
//     paths but not others (ParamMixed) are reported where they are
//     declared.
func OwnershipAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "ownership",
		Doc:  "DMA buffers must be freed/pushed/returned/stored on all paths; pushed buffers are immutable",
	}
	a.Run = func(p *Pass) { runOwnership(p) }
	return a
}

// bufAllocators are the memory-package entry points that hand the caller
// an owned buffer.
var bufAllocators = map[string]bool{
	"Alloc": true, "TryAlloc": true, "CopyFrom": true, "TryCopyFrom": true,
}

// bufConsumingMethods are Buf methods that discharge the ownership
// obligation.
func bufConsumingMethod(name string) bool { return name == "Free" }

func runOwnership(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, "internal/memory") {
		return // the allocator owns its own slots
	}
	buf := p.Mod.LookupNamed("internal/memory", "Buf")
	if buf == nil {
		return
	}
	isBuf := func(t types.Type) bool {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		n, ok := ptr.Elem().(*types.Named)
		return ok && n.Obj() == buf.Obj()
	}
	info := p.Pkg.Info
	okCall := func(call *ast.CallExpr) bool {
		fn := staticCallee(info, call)
		if fn == nil {
			return false
		}
		if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/memory") && bufAllocators[fn.Name()] {
			return true
		}
		// Interprocedural: module helpers whose result carries a
		// freshly-owned buffer are producers too.
		return p.Mod.OwnedResults(fn)[trackBuf]
	}
	for _, file := range p.Pkg.Files {
		for _, prod := range findProducers(info, file, isBuf, okCall) {
			callee := exprString(prod.call.Fun)
			switch {
			case prod.dropped, prod.blank:
				p.Reportf(prod.call.Pos(), "keep the buffer and Free it when done",
					"buffer allocated by %s is discarded without Free", callee)
			case prod.obj != nil:
				checkBufferLifecycle(p, prod, callee)
			}
		}
		checkBufParamModes(p, file, isBuf)
	}
}

func checkBufferLifecycle(p *Pass, prod producer, callee string) {
	if prod.fn == nil {
		return // package-scope initializer: stored by construction
	}
	var consumes []objUse
	for _, u := range p.Mod.adjustedUses(p.Pkg, prod.fn, prod.obj, trackBuf) {
		if u.consuming {
			consumes = append(consumes, u)
		}
	}
	if len(consumes) == 0 {
		p.Reportf(prod.call.Pos(),
			"Free the buffer, push it, return it, or store it for a later Free",
			"buffer %q allocated by %s is never freed, pushed, returned, or stored", prod.obj.Name(), callee)
		return
	}
	checkPathLeaks(p, prod, callee, consumes)
	checkPushPaths(p, prod)
}

// checkPathLeaks walks the CFG from the producing statement along paths
// with no consuming use; any return (or the end of a void function) such a
// path reaches leaks the buffer. Edges whose condition proves the buffer
// absent — the allocation's error is non-nil, or the buffer itself is nil
// — are pruned.
func checkPathLeaks(p *Pass, prod producer, callee string, consumes []objUse) {
	info := p.Pkg.Info
	// The CFG must be the innermost function body holding the allocation:
	// a buffer produced and consumed inside a closure is not answerable to
	// the enclosing function's returns.
	g := p.Mod.bodyCFG(innermostFuncBody(prod.fn, prod.call))
	if deferConsumes(info, g, prod.obj, trackBuf, p.Mod) {
		return // a deferred Free runs at every exit
	}
	start, idx := g.Lookup(prod.stmt)
	if start == nil {
		start, idx = lookupEnclosing(g, prod.call)
	}
	if start == nil {
		return // producer inside a nested function literal: out of CFG scope
	}
	consumed := consumingPositions(consumes)
	prune := func(cond ast.Expr, trueEdge bool) bool {
		if op, obj := condNilTest(info, cond); obj != nil {
			if obj == prod.errObj {
				// err != nil (true) / err == nil (false): the allocation
				// failed, no buffer was handed out.
				return (op == token.NEQ) == trueEdge
			}
			if obj == prod.obj {
				// b == nil (true) / b != nil (false): nothing to free.
				return (op == token.EQL) == trueEdge
			}
		}
		return false
	}
	leaks, fellOff := leakyExits(g, start, idx+1, consumed, prune)
	allocLine := p.Mod.Fset.Position(prod.call.Pos()).Line
	for _, ret := range leaks {
		p.Reportf(ret.Pos(), "Free the buffer before this return (or on a deferred path)",
			"buffer %q (allocated at line %d) leaks on this return path",
			prod.obj.Name(), allocLine)
	}
	if fellOff {
		p.Reportf(prod.call.Pos(), "Free the buffer on every path through the function",
			"buffer %q allocated by %s leaks on a path that falls off the end of the function",
			prod.obj.Name(), callee)
	}
}

// innermostFuncBody returns the body of the innermost function literal in
// outer that contains n, or outer itself when n is not inside a closure.
func innermostFuncBody(outer *ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	body := outer
	ast.Inspect(outer, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok && fl.Body.Pos() <= n.Pos() && n.End() <= fl.Body.End() {
			body = fl.Body // visited outer-to-inner: the last match is innermost
		}
		return true
	})
	return body
}

// lookupEnclosing finds the CFG node (and its block position) whose source
// range covers n — the fallback when the producing statement itself was
// not appended (ValueSpec producers, if-init forms).
func lookupEnclosing(g *CFG, n ast.Node) (*Block, int) {
	for _, blk := range g.Blocks {
		for i, node := range blk.Nodes {
			if node.Pos() <= n.Pos() && n.End() <= node.End() {
				return blk, i
			}
		}
	}
	return nil, -1
}

// checkBufParamModes reports helpers that treat an owned buffer parameter
// inconsistently: consumed on some same-class exit paths, leaked on
// others. Borrowing (no path consumes) and transfer (every success path
// consumes) are both legitimate contracts; mixing them is a bug in the
// helper.
func checkBufParamModes(p *Pass, file *ast.File, isBuf func(types.Type) bool) {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		for i, info := range p.Mod.ParamModes(fn) {
			if info.Mode != ParamMixed {
				continue
			}
			sig := fn.Type().(*types.Signature)
			name := sig.Params().At(i).Name()
			if !isBuf(sig.Params().At(i).Type()) {
				continue // qtoken params are the qtoken analyzer's business
			}
			for _, ret := range info.Leaks {
				p.Reportf(ret.Pos(), "consume the parameter on every path (transfer) or on none (borrow)",
					"buffer parameter %q of %s is freed or transferred on some paths but leaks on this return path",
					name, fd.Name.Name)
			}
			if info.FallsOff {
				p.Reportf(fd.Body.Rbrace, "consume the parameter on every path (transfer) or on none (borrow)",
					"buffer parameter %q of %s is freed or transferred on some paths but leaks when the function falls off the end",
					name, fd.Name.Name)
			}
		}
	}
}

// checkPushPaths verifies rule 3 (the error branch of a push frees the
// buffer) and rule 4 (no writes through the buffer after a push). The same
// error-branch contract is enforced at call sites of any helper summarized
// ParamConsumesOnSuccess — a push-like transfer wrapped in module code.
func checkPushPaths(p *Pass, prod producer) {
	info := p.Pkg.Info
	firstPush := token.Pos(-1)
	walkStack(prod.fn, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !callArgsContain(info, call, prod.obj) {
			return true
		}
		if isPushCall(call) {
			if firstPush < 0 || call.Pos() < firstPush {
				firstPush = call.Pos()
			}
			checkPushErrorBranch(p, prod, call, stack)
			return true
		}
		// The buffer flows (as a direct argument) into a helper that
		// consumes it only on success: its failure branch is a push-failure
		// branch and must discharge ownership.
		for argIdx, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == prod.obj {
				if mode, _ := p.Mod.ParamModeAt(p.Pkg, call, argIdx); mode == ParamConsumesOnSuccess {
					checkPushErrorBranch(p, prod, call, stack)
				}
			}
		}
		return true
	})
	if firstPush >= 0 {
		checkWritesAfterPush(p, prod, firstPush)
	}
}

// isPushCall matches Push/PushTo calls — the PDPIX ownership-transfer
// points.
func isPushCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Push" || fun.Sel.Name == "PushTo"
	case *ast.Ident:
		return fun.Name == "Push" || fun.Name == "PushTo"
	}
	return false
}

func callArgsContain(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, arg := range call.Args {
		if containsIdentOf(info, arg, obj) {
			return true
		}
	}
	return false
}

// checkPushErrorBranch finds the `if err != nil` (or `if err == nil`)
// guard attached to a push of the tracked buffer and verifies the failure
// branch consumes it: a failed push leaves ownership with the caller.
func checkPushErrorBranch(p *Pass, prod producer, push *ast.CallExpr, stack []ast.Node) {
	info := p.Pkg.Info
	assign, ifs := pushGuard(stack, push)
	if assign == nil || ifs == nil {
		return
	}
	errObj := assignedError(info, assign)
	if errObj == nil {
		return
	}
	op, condErr := condErrorTest(info, ifs.Cond)
	if condErr != errObj {
		return
	}
	var failBranch ast.Node
	switch op {
	case token.NEQ: // if err != nil { <failure> }
		failBranch = ifs.Body
	case token.EQL: // if err == nil { <success> } else { <failure> }
		if ifs.Else != nil {
			failBranch = ifs.Else
		}
	default:
		return
	}
	if failBranch != nil {
		if branchConsumes(info, failBranch, prod.obj) {
			return
		}
		if !branchExits(failBranch) {
			// Failure path falls through; a later Free can still run.
			if consumesAfter(info, prod, ifs.End()) {
				return
			}
		}
		p.Reportf(push.Pos(), "a failed push does not transfer ownership; Free the buffer on the error path",
			"buffer %q leaks when %s fails: the error path neither frees nor stores it",
			prod.obj.Name(), exprString(push.Fun))
		return
	}
	// `if err == nil { ... }` with no else: failure falls through the if.
	if consumesAfter(info, prod, ifs.End()) {
		return
	}
	p.Reportf(push.Pos(), "a failed push does not transfer ownership; add an else branch that frees the buffer",
		"buffer %q leaks when %s fails: nothing frees it on the failure path",
		prod.obj.Name(), exprString(push.Fun))
}

// pushGuard locates the assignment capturing the push's results and the if
// statement testing its error, handling both forms:
//
//	qt, err := l.Push(...)        // assign, then if
//	if err != nil { ... }
//
//	if qt, err := l.Push(...); err != nil { ... }  // if with init
func pushGuard(stack []ast.Node, push *ast.CallExpr) (*ast.AssignStmt, *ast.IfStmt) {
	for i := len(stack) - 1; i >= 0; i-- {
		assign, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		if i > 0 {
			if ifs, ok := stack[i-1].(*ast.IfStmt); ok && ifs.Init == assign {
				return assign, ifs
			}
			var list []ast.Stmt
			switch blk := stack[i-1].(type) {
			case *ast.BlockStmt:
				list = blk.List
			case *ast.CaseClause:
				list = blk.Body
			case *ast.CommClause:
				list = blk.Body
			}
			for j, s := range list {
				if s == assign && j+1 < len(list) {
					if ifs, ok := list[j+1].(*ast.IfStmt); ok {
						return assign, ifs
					}
				}
			}
		}
		return assign, nil
	}
	return nil, nil
}

// assignedError returns the object bound to the error result of the
// assignment, if any.
func assignedError(info *types.Info, assign *ast.AssignStmt) types.Object {
	for _, l := range assign.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil && isErrorType(obj.Type()) {
			return obj
		}
	}
	return nil
}

// condNilTest decodes an `x != nil` / `x == nil` condition against any
// identifier, returning the comparison operator and the object tested.
func condNilTest(info *types.Info, cond ast.Expr) (token.Token, types.Object) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return token.ILLEGAL, nil
	}
	id, nilSide := be.X, be.Y
	if isNilIdent(id) {
		id, nilSide = be.Y, be.X
	}
	if !isNilIdent(nilSide) {
		return token.ILLEGAL, nil
	}
	e, ok := ast.Unparen(id).(*ast.Ident)
	if !ok {
		return token.ILLEGAL, nil
	}
	obj := info.Uses[e]
	if obj == nil {
		return token.ILLEGAL, nil
	}
	return be.Op, obj
}

// condErrorTest decodes a `err != nil` / `err == nil` condition.
func condErrorTest(info *types.Info, cond ast.Expr) (token.Token, types.Object) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return token.ILLEGAL, nil
	}
	id, nilSide := be.X, be.Y
	if isNilIdent(id) {
		id, nilSide = be.Y, be.X
	}
	if !isNilIdent(nilSide) {
		return token.ILLEGAL, nil
	}
	e, ok := id.(*ast.Ident)
	if !ok {
		return token.ILLEGAL, nil
	}
	obj := info.Uses[e]
	if obj == nil || !isErrorType(obj.Type()) {
		return token.ILLEGAL, nil
	}
	return be.Op, obj
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// branchConsumes reports whether the branch contains a consuming use of obj.
func branchConsumes(info *types.Info, branch ast.Node, obj types.Object) bool {
	for _, u := range collectUses(info, branch, obj, bufConsumingMethod) {
		if u.consuming {
			return true
		}
	}
	return false
}

// branchExits reports whether the branch unconditionally leaves the
// surrounding flow (return / break / continue / goto at its top level).
func branchExits(branch ast.Node) bool {
	var list []ast.Stmt
	switch b := branch.(type) {
	case *ast.BlockStmt:
		list = b.List
	case *ast.IfStmt: // else-if chain
		return branchExits(b.Body)
	default:
		return false
	}
	for _, s := range list {
		switch s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Fatal" || sel.Sel.Name == "Fatalf") {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}

// consumesAfter reports whether any consuming use of the buffer appears
// after pos.
func consumesAfter(info *types.Info, prod producer, pos token.Pos) bool {
	for _, u := range collectUses(info, prod.fn, prod.obj, bufConsumingMethod) {
		if u.consuming && u.id.Pos() > pos {
			return true
		}
	}
	return false
}

// checkWritesAfterPush flags writes through the buffer after its first
// push: copy(b.Bytes(), ...) and indexed/sliced stores into it.
func checkWritesAfterPush(p *Pass, prod producer, pushPos token.Pos) {
	info := p.Pkg.Info
	report := func(pos token.Pos) {
		p.Reportf(pos, "marshal into the buffer before pushing it; the libOS owns it until the qtoken completes",
			"buffer %q is written after being pushed (pushed at line %d); pushed buffers are immutable until completion",
			prod.obj.Name(), p.Mod.Fset.Position(pushPos).Line)
	}
	walkStack(prod.fn, func(n ast.Node, stack []ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if s.Pos() <= pushPos || len(s.Args) == 0 {
				return true
			}
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "copy" {
				if containsIdentOf(info, s.Args[0], prod.obj) {
					report(s.Pos())
				}
			}
		case *ast.AssignStmt:
			if s.Pos() <= pushPos {
				return true
			}
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && info.Uses[id] == prod.obj {
					continue // rebinding the variable, not writing the buffer
				}
				if _, ok := l.(*ast.Ident); ok {
					continue
				}
				if containsIdentOf(info, l, prod.obj) {
					report(s.Pos())
				}
			}
		}
		return true
	})
}

// staticCallee resolves a call to its *types.Func when the callee is a
// plain function or a method on a concrete value. A method of an
// instantiated generic type resolves to its declaration (Origin), which is
// what the module's declaration table is keyed by.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}
