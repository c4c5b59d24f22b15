package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"
)

// summary_test.go asserts on the interprocedural engine's fixpoint
// directly, over the sumfix fixture: parameter modes and owned results —
// including convergence under mutual recursion, which a naive bottom-up
// pass would either loop on or misclassify.

func loadSumfix(t *testing.T) (*Module, *Package) {
	t.Helper()
	m, _ := loadSharedModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "src", "sumfix"))
	if err != nil {
		t.Fatalf("loading sumfix: %v", err)
	}
	return m, pkg
}

func funcNamed(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					return fn
				}
			}
		}
	}
	t.Fatalf("function %s not found in %s", name, pkg.Path)
	return nil
}

func TestParamModes(t *testing.T) {
	m, pkg := loadSumfix(t)
	cases := []struct {
		fn   string
		mode ParamMode
	}{
		{"blen", ParamBorrows},
		{"bfree", ParamConsumes},
		{"deferFree", ParamConsumes}, // the defer discharges every exit
		{"maybeFree", ParamMixed},
		{"pingFree", ParamConsumes}, // via mutual recursion with pongFree
		{"pongFree", ParamConsumes},
	}
	for _, c := range cases {
		info := m.ParamModes(funcNamed(t, pkg, c.fn))[0]
		if info == nil {
			t.Errorf("%s: no summary for the buffer parameter", c.fn)
			continue
		}
		if info.Mode != c.mode {
			t.Errorf("%s buffer param mode = %d, want %d", c.fn, info.Mode, c.mode)
		}
	}
}

func TestParamModeMixedLeaks(t *testing.T) {
	m, pkg := loadSumfix(t)
	info := m.ParamModes(funcNamed(t, pkg, "maybeFree"))[0]
	if info == nil || info.Mode != ParamMixed {
		t.Fatalf("maybeFree: mode = %+v, want Mixed", info)
	}
	if len(info.Leaks) != 1 {
		t.Fatalf("maybeFree: %d leaky returns recorded, want 1 (the return 0 path)", len(info.Leaks))
	}
	if info.FallsOff {
		t.Error("maybeFree: FallsOff set, but every path returns explicitly")
	}
}

func TestOwnedResults(t *testing.T) {
	m, pkg := loadSumfix(t)
	cases := []struct {
		fn    string
		owned bool
	}{
		{"wrapAlloc", true},
		{"rewrap", true}, // provenance follows the local through the second hop
		{"passthrough", false},
		{"blen", false},
	}
	for _, c := range cases {
		if got := m.OwnedResults(funcNamed(t, pkg, c.fn))[trackBuf]; got != c.owned {
			t.Errorf("OwnedResults(%s)[buf] = %v, want %v", c.fn, got, c.owned)
		}
	}
}
