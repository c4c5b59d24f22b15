package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flow.go holds the lightweight dataflow machinery the qtoken and buffer
// ownership analyzers share: finding the calls that produce a tracked value
// (a core.QToken, a *memory.Buf), resolving which local variable captured
// it, and classifying every later use of that variable as consuming
// (redeems, transfers or stores the value) or inert (compares, reads).

// walkStack visits every node under root with its ancestor stack
// (outermost first). Returning false from fn skips the node's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// outermostFuncBody returns the body of the outermost function declaration
// on the stack: the scope within which a tracked variable's uses are
// searched. (Objects declared in a nested FuncLit only have uses inside
// it, so the wider scope is always a sound superset.)
func outermostFuncBody(stack []ast.Node) *ast.BlockStmt {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd.Body
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			return fl.Body
		}
	}
	return nil
}

// A producer is one call whose result includes a tracked value.
type producer struct {
	call     *ast.CallExpr
	fn       *ast.BlockStmt // function body the value lives in (nil at package scope)
	obj      types.Object   // variable holding the value; nil if not captured
	errObj   types.Object   // error result captured alongside, if any
	blank    bool           // tracked result assigned to _
	dropped  bool           // whole result discarded (bare expression statement)
	consumed bool           // result flows directly onward (return/arg/composite)
	stmt     ast.Stmt       // statement containing the call (assign or expr stmt)
}

// findProducers scans a file for calls with a result matching isTracked
// (filtered by okCall when non-nil) and resolves what happened to the
// tracked result.
func findProducers(info *types.Info, file *ast.File, isTracked func(types.Type) bool, okCall func(*ast.CallExpr) bool) []producer {
	var out []producer
	walkStack(file, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tv, ok := info.Types[call]
		if !ok {
			return true
		}
		idx := -1 // index of the tracked component in the result tuple
		errIdx := -1
		switch t := tv.Type.(type) {
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				ti := t.At(i).Type()
				if isTracked(ti) && idx < 0 {
					idx = i
				}
				if isErrorType(ti) {
					errIdx = i
				}
			}
			if idx < 0 {
				return true
			}
		default:
			if tv.Type == nil || !isTracked(tv.Type) {
				return true
			}
			idx = 0
		}
		if okCall != nil && !okCall(call) {
			return true
		}
		p := producer{call: call, fn: outermostFuncBody(stack)}
		// Classify the call's context from its nearest ancestors.
		cur := ast.Node(call)
		for i := len(stack) - 1; i >= 0; i-- {
			a := stack[i]
			if pe, ok := a.(*ast.ParenExpr); ok {
				cur = pe
				continue
			}
			switch s := a.(type) {
			case *ast.AssignStmt:
				p.stmt = s
				assignProducer(info, &p, s, cur, idx, errIdx)
			case *ast.ValueSpec:
				assignSpecProducer(info, &p, s, cur, idx, errIdx)
			case *ast.ExprStmt:
				p.stmt = s
				p.dropped = true
			default:
				// The call's value flows somewhere structurally (return
				// statement, argument to another call, composite literal,
				// channel send...): consumed by construction.
				p.consumed = true
			}
			break
		}
		if p.stmt == nil && !p.consumed && !p.dropped {
			p.consumed = true // package-level initializer etc.
		}
		out = append(out, p)
		return true
	})
	return out
}

// assignProducer resolves which LHS variable captured the tracked result.
func assignProducer(info *types.Info, p *producer, s *ast.AssignStmt, cur ast.Node, idx, errIdx int) {
	if len(s.Rhs) == 1 && s.Rhs[0] == cur {
		// qt, err := f()  — component i maps to Lhs[i].
		bindLHS(info, p, s.Lhs, idx, errIdx)
		return
	}
	// f() appears as one RHS among several: it has exactly one result.
	for i, r := range s.Rhs {
		if r == cur && i < len(s.Lhs) {
			bindLHS(info, p, s.Lhs[i:i+1], 0, -1)
			return
		}
	}
	p.consumed = true // nested inside a larger RHS expression
}

func assignSpecProducer(info *types.Info, p *producer, s *ast.ValueSpec, cur ast.Node, idx, errIdx int) {
	if len(s.Values) == 1 && s.Values[0] == cur {
		if idx < len(s.Names) {
			id := s.Names[idx]
			if id.Name == "_" {
				p.blank = true
			} else {
				p.obj = info.Defs[id]
			}
			if errIdx >= 0 && errIdx < len(s.Names) && s.Names[errIdx].Name != "_" {
				p.errObj = info.Defs[s.Names[errIdx]]
			}
			return
		}
	}
	p.consumed = true
}

func bindLHS(info *types.Info, p *producer, lhs []ast.Expr, idx, errIdx int) {
	get := func(i int) (types.Object, bool /*blank*/, bool /*ident*/) {
		if i >= len(lhs) {
			return nil, false, false
		}
		id, ok := lhs[i].(*ast.Ident)
		if !ok {
			return nil, false, false // stored straight into a field/index: consumed
		}
		if id.Name == "_" {
			return nil, true, true
		}
		if o := info.Defs[id]; o != nil {
			return o, false, true
		}
		return info.Uses[id], false, true
	}
	obj, blank, isIdent := get(idx)
	switch {
	case blank:
		p.blank = true
	case obj != nil:
		p.obj = obj
	case !isIdent:
		p.consumed = true // e.g. c.qt, err = f(): stored in a field
	}
	if errIdx >= 0 {
		if eo, _, _ := get(errIdx); eo != nil {
			p.errObj = eo
		}
	}
}

// An objUse is one classified appearance of a tracked variable.
type objUse struct {
	id        *ast.Ident
	consuming bool
	how       string // what the use does, for diagnostics

	// call and argIndex are set when the use consumes by being passed as a
	// call argument: the interprocedural engine re-resolves these against
	// the callee's parameter summary (a callee that merely borrows the
	// value does not consume it).
	call     *ast.CallExpr
	argIndex int
	borrowed bool // downgraded by the callee's summary (ParamBorrows)
}

// collectUses finds every use of obj inside body and classifies it. The
// consumingMethod hook decides whether a method call on the object consumes
// it (e.g. Buf.Free does, Buf.Len does not); nil means no method consumes.
func collectUses(info *types.Info, body ast.Node, obj types.Object, consumingMethod func(name string) bool) []objUse {
	var uses []objUse
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		u := objUse{id: id, argIndex: -1}
		u.consuming, u.how, u.call, u.argIndex = classifyUse(stack, id, consumingMethod)
		uses = append(uses, u)
		return true
	})
	return uses
}

// classifyUse walks outward from an identifier to decide whether this use
// consumes the tracked value. For consuming call-argument uses it also
// returns the call and the argument position the value flows into.
func classifyUse(stack []ast.Node, id *ast.Ident, consumingMethod func(string) bool) (bool, string, *ast.CallExpr, int) {
	cur := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.ParenExpr, *ast.StarExpr, *ast.TypeAssertExpr:
			cur = a.(ast.Node)
		case *ast.SelectorExpr:
			if a.X != cur {
				return false, "selector", nil, -1
			}
			// Method call on the object?
			if i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == a {
					if consumingMethod != nil && consumingMethod(a.Sel.Name) {
						return true, "." + a.Sel.Name + "()", nil, -1
					}
					return false, "." + a.Sel.Name + "()", nil, -1
				}
			}
			return false, "field access", nil, -1
		case *ast.CallExpr:
			if cur == a.Fun {
				return false, "called", nil, -1
			}
			arg := -1
			for k, e := range a.Args {
				if e == cur {
					arg = k
				}
			}
			return true, "passed to " + exprString(a.Fun), a, arg
		case *ast.ReturnStmt:
			return true, "returned", nil, -1
		case *ast.AssignStmt:
			for k, r := range a.Rhs {
				if r == cur {
					// `_ = x` keeps the compiler quiet but consumes nothing.
					if len(a.Lhs) == len(a.Rhs) {
						if lid, ok := a.Lhs[k].(*ast.Ident); ok && lid.Name == "_" {
							return false, "discarded with _", nil, -1
						}
					}
					return true, "stored", nil, -1
				}
			}
			return false, "assigned over", nil, -1
		case *ast.ValueSpec:
			for _, v := range a.Values {
				if v == cur {
					return true, "stored", nil, -1
				}
			}
			return false, "declared", nil, -1
		case *ast.CompositeLit:
			return true, "stored in composite literal", nil, -1
		case *ast.KeyValueExpr:
			if a.Value == cur {
				cur = a
				continue
			}
			return false, "map key", nil, -1
		case *ast.SendStmt:
			if a.Value == cur {
				return true, "sent on channel", nil, -1
			}
			return false, "channel expr", nil, -1
		case *ast.IndexExpr:
			if a.X == cur {
				cur = a
				continue
			}
			return false, "index", nil, -1
		case *ast.SliceExpr:
			if a.X == cur {
				cur = a
				continue
			}
			return false, "slice bound", nil, -1
		case *ast.UnaryExpr:
			if a.Op == token.AND {
				return true, "address taken", nil, -1
			}
			return false, "operand", nil, -1
		case *ast.BinaryExpr:
			return false, "compared", nil, -1
		default:
			return false, "read", nil, -1
		}
	}
	return false, "read", nil, -1
}

// containsIdentOf reports whether the subtree contains an identifier
// resolving to obj.
func containsIdentOf(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// exprString renders a short printable form of an expression (selector
// chains and identifiers; anything else becomes "call").
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "call"
}
