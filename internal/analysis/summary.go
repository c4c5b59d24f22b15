package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// summary.go is the interprocedural half of the engine: a fixpoint over the
// module call graph computing, per function, (1) how each tracked parameter
// (*memory.Buf, core.QToken) is treated — borrowed, always consumed,
// consumed only on success, or inconsistently consumed across paths; and
// (2) whether results carry a freshly-owned tracked value, making the
// function's call sites producers. Both are recursive solutions over finite
// lattices, memoized on first use; cycles resolve to documented defaults
// (parameters: consumes; owned results: not a producer).

// ParamMode says how a callee treats a tracked parameter.
type ParamMode int8

const (
	// ParamUntracked: the parameter does not carry a tracked type (or the
	// callee is outside the module and has no summary).
	ParamUntracked ParamMode = iota
	// ParamBorrows: no path through the callee consumes the value; the
	// caller still owns it after the call.
	ParamBorrows
	// ParamConsumes: every path consumes the value (frees, transfers,
	// stores, or returns it); the caller is discharged unconditionally.
	ParamConsumes
	// ParamConsumesOnSuccess: success-class exits always consume; error
	// exits leave ownership with the caller — the Push contract. The
	// caller must discharge the value on the callee's error path.
	ParamConsumesOnSuccess
	// ParamMixed: some same-class exit paths consume and others leak.
	// This is a bug in the callee; its declaring package gets a finding.
	ParamMixed
)

func (m ParamMode) String() string {
	switch m {
	case ParamBorrows:
		return "borrows"
	case ParamConsumes:
		return "consumes"
	case ParamConsumesOnSuccess:
		return "consumes-on-success"
	case ParamMixed:
		return "mixed"
	}
	return "untracked"
}

// trackKind selects which tracked value family a summary speaks about.
type trackKind int8

const (
	trackBuf trackKind = iota
	trackQTok
	numTrackKinds
)

// paramInfo is one tracked parameter's summary.
type paramInfo struct {
	Mode ParamMode
	// Leaks are the exits that make a Mixed parameter mixed: same-class
	// exit paths that can be reached without consuming the value.
	Leaks []*ast.ReturnStmt
	// FallsOff marks a consume-free path to the end of a function body
	// (implicit return) for a Mixed parameter.
	FallsOff bool
}

// summaries is the engine state hung off the Module: memos filled lazily
// by the accessors below, from one goroutine.
type summaries struct {
	trackedNamed [numTrackKinds]*types.Named

	params  map[*types.Func]map[int]*paramInfo
	inParam map[*types.Func]bool
	owned   map[*types.Func]*[numTrackKinds]bool
	inOwned map[*types.Func]bool

	exitClasses map[*ast.FuncDecl]map[*ast.ReturnStmt]exitClass
	cfgs        map[*ast.BlockStmt]*CFG
}

func (m *Module) summaryState() *summaries {
	if m.sums == nil {
		m.sums = &summaries{
			params:      make(map[*types.Func]map[int]*paramInfo),
			inParam:     make(map[*types.Func]bool),
			owned:       make(map[*types.Func]*[numTrackKinds]bool),
			inOwned:     make(map[*types.Func]bool),
			exitClasses: make(map[*ast.FuncDecl]map[*ast.ReturnStmt]exitClass),
			cfgs:        make(map[*ast.BlockStmt]*CFG),
		}
		m.sums.trackedNamed[trackBuf] = m.LookupNamed("internal/memory", "Buf")
		m.sums.trackedNamed[trackQTok] = m.LookupNamed("internal/core", "QToken")
	}
	return m.sums
}

// trackedKind classifies a type as one of the tracked families: *memory.Buf
// or core.QToken. It returns (kind, true) on a match.
func (s *summaries) trackedKind(t types.Type) (trackKind, bool) {
	if t == nil {
		return 0, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if n, ok := ptr.Elem().(*types.Named); ok && s.trackedNamed[trackBuf] != nil && n.Obj() == s.trackedNamed[trackBuf].Obj() {
			return trackBuf, true
		}
		return 0, false
	}
	if n, ok := t.(*types.Named); ok && s.trackedNamed[trackQTok] != nil && n.Obj() == s.trackedNamed[trackQTok].Obj() {
		return trackQTok, true
	}
	return 0, false
}

// consumingMethodFor returns the method hook for a tracked kind: Buf.Free
// discharges a buffer; qtokens have no consuming methods.
func consumingMethodFor(k trackKind) func(string) bool {
	if k == trackBuf {
		return bufConsumingMethod
	}
	return nil
}

// ParamModes returns the tracked-parameter summaries of fn (nil when fn has
// none or was not declared in the module).
func (m *Module) ParamModes(fn *types.Func) map[int]*paramInfo {
	m.index()
	s := m.summaryState()
	if pm, ok := s.params[fn]; ok {
		return pm
	}
	fd := m.decls[fn]
	if fd == nil || fd.Body == nil {
		return nil // external: no summary, and nothing worth caching
	}
	if s.inParam[fn] {
		return nil // recursion: callers fall back to the consuming default
	}
	s.inParam[fn] = true
	defer delete(s.inParam, fn)

	sig := fn.Type().(*types.Signature)
	var pm map[int]*paramInfo
	for i := 0; i < sig.Params().Len(); i++ {
		pv := sig.Params().At(i)
		kind, ok := s.trackedKind(pv.Type())
		if !ok || pv.Name() == "" || pv.Name() == "_" {
			continue
		}
		info := m.analyzeParam(fn, fd, pv, kind)
		if info == nil {
			continue
		}
		if pm == nil {
			pm = make(map[int]*paramInfo)
		}
		pm[i] = info
	}
	s.params[fn] = pm
	return pm
}

// analyzeParam computes one parameter's mode by classifying its uses and
// walking the CFG: which exit classes are reachable without a consuming
// use?
func (m *Module) analyzeParam(fn *types.Func, fd *ast.FuncDecl, pv *types.Var, kind trackKind) *paramInfo {
	pkg := m.declPkg[fn]
	if pkg == nil {
		return nil
	}
	// The allocator manipulates its own slots by design.
	if kind == trackBuf && strings.HasSuffix(pkg.Path, "internal/memory") {
		return nil
	}
	uses := m.adjustedUses(pkg, fd.Body, pv, kind)
	consumed := consumingPositions(uses)
	if len(consumed) == 0 {
		return &paramInfo{Mode: ParamBorrows}
	}
	g := m.bodyCFG(fd.Body)
	if deferConsumes(pkg.Info, g, pv, kind, m) {
		return &paramInfo{Mode: ParamConsumes}
	}
	classes := m.exitClassesOf(pkg, fd)
	leaks, fallsOff := leakyExits(g, g.Entry, 0, consumed, nil)

	var successLeaks []*ast.ReturnStmt
	errLeak := false
	for _, ret := range leaks {
		switch classes[ret] {
		case exitError:
			errLeak = true
		default: // success and unknown exits must consume
			successLeaks = append(successLeaks, ret)
		}
	}
	switch {
	case len(successLeaks) == 0 && !fallsOff && !errLeak:
		return &paramInfo{Mode: ParamConsumes}
	case len(successLeaks) == 0 && !fallsOff:
		return &paramInfo{Mode: ParamConsumesOnSuccess}
	default:
		return &paramInfo{Mode: ParamMixed, Leaks: successLeaks, FallsOff: fallsOff}
	}
}

// ParamModeAt resolves the mode of the callee parameter an argument flows
// into, with the intra-procedural default (consumes) for everything the
// engine cannot see: external code, interface methods, variadic tails,
// recursion in progress.
func (m *Module) ParamModeAt(pkg *Package, call *ast.CallExpr, argIndex int) (ParamMode, *types.Func) {
	if argIndex < 0 {
		return ParamConsumes, nil
	}
	fn := staticCallee(pkg.Info, call)
	if fn == nil {
		return ParamConsumes, nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return ParamConsumes, fn
	}
	sig := fn.Type().(*types.Signature)
	if sig.Variadic() && argIndex >= sig.Params().Len()-1 {
		return ParamConsumes, fn
	}
	pm := m.ParamModes(fn)
	if pm == nil {
		return ParamConsumes, fn
	}
	info, ok := pm[argIndex]
	if !ok {
		return ParamConsumes, fn
	}
	return info.Mode, fn
}

// sacredConsumers are callee names that consume a tracked argument by
// PDPIX contract regardless of what their bodies look like: Wait redeems a
// qtoken even though its implementation only reads the token's bits, and
// Push/PushTo transfer a buffer (their error-branch semantics are enforced
// separately by the push rule).
var sacredConsumers = [numTrackKinds]map[string]bool{
	trackBuf:  {"Push": true, "PushTo": true},
	trackQTok: {"Wait": true, "WaitAny": true, "WaitAll": true, "TryTake": true},
}

// calleeName returns the syntactic name a call is made under.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// resultsCarry reports whether callee's results include a value of the
// tracked kind: such callees are transformers (tagQT, untagQT) — the
// tracked value's identity continues through the result, which is itself
// tracked at the call site, so the argument counts as consumed even when
// the callee's body only reads it.
func (m *Module) resultsCarry(callee *types.Func, kind trackKind) bool {
	if callee == nil {
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return false
	}
	s := m.summaryState()
	for i := 0; i < sig.Results().Len(); i++ {
		if k, ok := s.trackedKind(sig.Results().At(i).Type()); ok && k == kind {
			return true
		}
	}
	return false
}

// adjustedUses classifies every use of obj, then re-resolves consuming
// call-argument uses against the callee's parameter summary: an argument
// passed to a borrowing callee is not consumed. Redemption/transfer API
// calls (sacredConsumers) always consume.
func (m *Module) adjustedUses(pkg *Package, body ast.Node, obj types.Object, kind trackKind) []objUse {
	uses := collectUses(pkg.Info, body, obj, consumingMethodFor(kind))
	for i := range uses {
		u := &uses[i]
		if !u.consuming || u.call == nil {
			continue
		}
		if sacredConsumers[kind][calleeName(u.call)] {
			continue
		}
		mode, callee := m.ParamModeAt(pkg, u.call, u.argIndex)
		if mode == ParamBorrows && !m.resultsCarry(callee, kind) {
			u.consuming = false
			u.borrowed = true
			if callee != nil {
				u.how = "passed to " + callee.Name() + ", which only borrows it"
			}
		}
	}
	return uses
}

// consumingPositions flattens consuming uses into a position set for the
// CFG walk.
func consumingPositions(uses []objUse) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	for _, u := range uses {
		if u.consuming {
			out[u.id.Pos()] = true
		}
	}
	return out
}

// deferConsumes reports whether any deferred statement consumes obj —
// defers run at every exit, discharging the obligation on all paths.
func deferConsumes(info *types.Info, g *CFG, obj types.Object, kind trackKind, m *Module) bool {
	for _, d := range g.Defers {
		for _, u := range collectUses(info, d, obj, consumingMethodFor(kind)) {
			if u.consuming {
				return true
			}
		}
	}
	return false
}

// bodyCFG memoizes CFG construction per function body.
func (m *Module) bodyCFG(body *ast.BlockStmt) *CFG {
	s := m.summaryState()
	if g, ok := s.cfgs[body]; ok {
		return g
	}
	g := BuildCFG(body)
	s.cfgs[body] = g
	return g
}

// An exitClass says which contract class a return statement belongs to.
type exitClass int8

const (
	exitUnknown exitClass = iota // cannot tell statically: treated like success
	exitSuccess                  // error result is nil (or bool result is true)
	exitError                    // error result provably non-nil (or bool result false)
)

// exitClassesOf classifies every return statement of fd by its error (or,
// failing that, trailing bool) result:
//
//   - a nil error literal is a success exit;
//   - a non-nil sentinel (package-level error var), an error-constructor
//     call (errors.New, fmt.Errorf), or an error-typed identifier returned
//     under its own `!= nil` guard is an error exit;
//   - anything else (e.g. `return w.Wait(qt)`) is unknown, and unknown
//     exits are held to the success contract.
//
// Functions with no error result but a trailing bool result follow the
// try-idiom: `return true` is success, `return false` is the failure exit.
func (m *Module) exitClassesOf(pkg *Package, fd *ast.FuncDecl) map[*ast.ReturnStmt]exitClass {
	s := m.summaryState()
	if c, ok := s.exitClasses[fd]; ok {
		return c
	}
	classes := make(map[*ast.ReturnStmt]exitClass)
	s.exitClasses[fd] = classes

	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return classes
	}
	res := fn.Type().(*types.Signature).Results()
	errIdx, boolIdx := -1, -1
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			errIdx = i
		} else if b, ok := res.At(i).Type().Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
			boolIdx = i
		}
	}
	if errIdx < 0 && boolIdx < 0 {
		return classes // every return is success-class (the zero map value is unknown; absent = success below)
	}
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		classes[ret] = classifyReturn(pkg.Info, ret, stack, errIdx, boolIdx)
		return true
	})
	return classes
}

func classifyReturn(info *types.Info, ret *ast.ReturnStmt, stack []ast.Node, errIdx, boolIdx int) exitClass {
	if errIdx >= 0 {
		if errIdx >= len(ret.Results) {
			return exitUnknown // bare return with named results
		}
		e := ast.Unparen(ret.Results[errIdx])
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "nil" {
				return exitSuccess
			}
			obj := info.Uses[x]
			if obj == nil {
				return exitUnknown
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
				return exitError // package-level sentinel (ErrFoo)
			}
			// `return err` under its own non-nil guard.
			for i := len(stack) - 1; i >= 0; i-- {
				if ifs, ok := stack[i].(*ast.IfStmt); ok {
					if op, condObj := condErrorTest(info, ifs.Cond); condObj == obj && op == token.NEQ {
						return exitError
					}
				}
			}
			return exitUnknown
		case *ast.SelectorExpr:
			if obj := info.Uses[x.Sel]; obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
					return exitError // qualified sentinel (core.ErrTenantQuota)
				}
			}
			return exitUnknown
		case *ast.CallExpr:
			if fn := staticCallee(info, x); fn != nil && fn.Pkg() != nil {
				p, n := fn.Pkg().Path(), fn.Name()
				if (p == "errors" && n == "New") || (p == "fmt" && n == "Errorf") {
					return exitError
				}
			}
			return exitUnknown
		}
		return exitUnknown
	}
	// try-idiom: trailing bool result.
	if boolIdx < len(ret.Results) {
		if id, ok := ast.Unparen(ret.Results[boolIdx]).(*ast.Ident); ok {
			switch id.Name {
			case "true":
				return exitSuccess
			case "false":
				return exitError
			}
		}
	}
	return exitUnknown
}

// leakyExits walks the CFG from (start, idx) along paths containing no
// consuming use, returning every return statement such a path can reach
// plus whether one falls off the end of the body. prune, when non-nil,
// drops condition edges that are infeasible for the value being tracked
// (e.g. the allocation-failed branch). Paths ending in panic report
// nothing: they never reach a normal exit.
func leakyExits(g *CFG, start *Block, idx int, consumed map[token.Pos]bool, prune func(cond ast.Expr, trueEdge bool) bool) ([]*ast.ReturnStmt, bool) {
	var leaks []*ast.ReturnStmt
	fellOff := false
	seen := make(map[*Block]bool)
	reported := make(map[*ast.ReturnStmt]bool)

	var walk func(b *Block, from int)
	walk = func(b *Block, from int) {
		if from == 0 {
			if seen[b] {
				return
			}
			seen[b] = true
		}
		for i := from; i < len(b.Nodes); i++ {
			if nodeConsumes(b.Nodes[i], consumed) {
				return // obligation discharged on this path
			}
		}
		if b.Panics {
			return
		}
		if b.Return != nil {
			if !reported[b.Return] {
				reported[b.Return] = true
				leaks = append(leaks, b.Return)
			}
			return
		}
		if len(b.Succs) == 0 {
			fellOff = true
			return
		}
		for i, succ := range b.Succs {
			if b.Cond != nil && prune != nil && i < 2 && prune(b.Cond, i == 0) {
				continue
			}
			walk(succ, 0)
		}
	}
	walk(start, idx)
	return leaks, fellOff
}

// nodeConsumes reports whether the node's source range covers a consuming
// use position.
func nodeConsumes(n ast.Node, consumed map[token.Pos]bool) bool {
	for pos := range consumed {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// OwnedResults reports, per tracked kind, whether fn's call sites receive a
// freshly-owned value: some return path hands back the result of an
// allocator (or of another owned-returning function), possibly through a
// local. Accessors returning stored values stay un-owned, so pop-queue
// getters do not create false producers.
func (m *Module) OwnedResults(fn *types.Func) [numTrackKinds]bool {
	m.index()
	s := m.summaryState()
	if o, ok := s.owned[fn]; ok {
		return *o
	}
	var res [numTrackKinds]bool
	fd := m.decls[fn]
	if fd == nil || fd.Body == nil || s.inOwned[fn] {
		return res // no source, or recursion: not a producer
	}
	s.inOwned[fn] = true
	defer delete(s.inOwned, fn)

	pkg := m.declPkg[fn]
	sig := fn.Type().(*types.Signature)
	trackedResults := make(map[int]trackKind)
	for i := 0; i < sig.Results().Len(); i++ {
		if k, ok := s.trackedKind(sig.Results().At(i).Type()); ok {
			trackedResults[i] = k
		}
	}
	// QToken-returning functions are producers by type alone (the existing
	// qtoken rule); ownership summaries only need the buffer direction.
	for _, k := range trackedResults {
		if k == trackQTok {
			res[trackQTok] = true
		}
	}
	if len(trackedResults) > 0 && pkg != nil {
		walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for i, e := range ret.Results {
				k, tracked := trackedResults[i]
				if !tracked || k != trackBuf {
					continue
				}
				if m.exprYieldsOwned(pkg, fd, ast.Unparen(e)) {
					res[trackBuf] = true
				}
			}
			return true
		})
	}
	s.owned[fn] = &res
	return res
}

// exprYieldsOwned reports whether e is an allocator call, a call to an
// owned-returning function, or a local whose definition is one of those.
func (m *Module) exprYieldsOwned(pkg *Package, fd *ast.FuncDecl, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		fn := staticCallee(pkg.Info, x)
		if fn == nil {
			return false
		}
		if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/memory") && bufAllocators[fn.Name()] {
			return true
		}
		return m.OwnedResults(fn)[trackBuf]
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			return false
		}
		owned := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if owned {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && (pkg.Info.Defs[id] == obj || pkg.Info.Uses[id] == obj) {
					if m.exprYieldsOwned(pkg, fd, call) {
						owned = true
					}
				}
			}
			return true
		})
		return owned
	}
	return false
}
