package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once and shared: whole-module type-checking from
// source costs ~2 s, and every test needs the same packages. modPkgs
// snapshots the module's own packages before fixture loads append to
// mod.Pkgs, so TestModuleClean analyzes exactly what demi-vet ships.
var (
	modOnce sync.Once
	mod     *Module
	modPkgs []*Package
	modErr  error
)

func loadSharedModule(t *testing.T) (*Module, []*Package) {
	t.Helper()
	modOnce.Do(func() {
		mod, modErr = LoadModule(".")
		if modErr == nil {
			modPkgs = append([]*Package(nil), mod.Pkgs...)
		}
	})
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod, modPkgs
}

// A want is one expected-finding comment: // want `regexp`.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRx = regexp.MustCompile("want `([^`]+)`")

// parseWants extracts the want comments of a fixture package.
func parseWants(t *testing.T, m *Module, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				match := wantRx.FindStringSubmatch(c.Text)
				if match == nil {
					continue
				}
				pos := m.Fset.Position(c.Slash)
				re, err := regexp.Compile(match[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
				}
				wants = append(wants, &want{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture analyzes one testdata package with one analyzer and checks
// the findings against its want comments, both directions.
func runFixture(t *testing.T, fixture string, as ...*Analyzer) {
	t.Helper()
	m, _ := loadSharedModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	findings := Run(m, []*Package{pkg}, as)
	wants := parseWants(t, m, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if w.line == f.Pos.Line && w.file == filepath.Base(f.File) && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestQTokenFixture(t *testing.T) {
	runFixture(t, "qtokenfix", QTokenAnalyzer())
}

func TestOwnershipFixture(t *testing.T) {
	runFixture(t, "ownerfix", OwnershipAnalyzer())
}

// TestCatmemOwnershipFixture pins the shared-memory handoff contract:
// successful pushes consume the SGA (no Free by the pusher), call-level
// push errors leave ownership with the caller, and handed-off buffers are
// immutable to the pusher.
func TestCatmemOwnershipFixture(t *testing.T) {
	runFixture(t, "catmemfix", OwnershipAnalyzer())
}

// TestFrontEndFixture pins both contracts across the PDPIX front end: calls
// that resolve to methods promoted from an embedded core.FrontEnd are held
// to the push and qtoken rules like direct ones, and a stack queue's
// Push(op, sga, to) error consumes the array only on a nil return.
func TestFrontEndFixture(t *testing.T) {
	runFixture(t, "frontendfix", OwnershipAnalyzer(), QTokenAnalyzer())
}

// TestTenantFixture pins the multi-tenant error-path contracts: a
// quota-rejected Push (ErrTenantQuota) leaves buffer ownership with the
// caller, and a forged-token rejection (ErrBadQToken) consumes nothing —
// the caller's own outstanding tokens must still be redeemed. The fixture
// mixes ownership and qtoken findings, so both analyzers run over it.
func TestTenantFixture(t *testing.T) {
	runFixture(t, "tenantfix", OwnershipAnalyzer(), QTokenAnalyzer())
}

// TestInterprocFixture pins the interprocedural engine's headline wins:
// leaks through borrowing helpers, owned results of wrapper allocators,
// path-sensitive leaks of helper-produced buffers, and tokens stranded
// through inspection helpers.
func TestInterprocFixture(t *testing.T) {
	runFixture(t, "interprocfix", OwnershipAnalyzer(), QTokenAnalyzer())
}

// TestModuleClean is the acceptance gate: demi-vet reports nothing on the
// module itself.
func TestModuleClean(t *testing.T) {
	m, pkgs := loadSharedModule(t)
	for _, f := range Run(m, pkgs, DefaultAnalyzers()) {
		t.Errorf("module is not demi-vet clean: %s", f)
	}
}

// renderFindings is the comparison key of the order tests: every field a
// finding prints.
func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// forgetSummaries drops every memo, so the next query computes from
// nothing, in whatever order it is asked.
func forgetSummaries(m *Module) { m.sums = nil }

// TestFindingsIndependentOfOrder holds the sequential engine to what the
// snapshot engine was for: summaries are memoized in the order they are
// first asked for, and a function summarized while a caller of its own
// cycle is still in progress sees that caller's default, so findings must
// not depend on which package is analyzed first, nor on which member of a
// call cycle is entered first.
func TestFindingsIndependentOfOrder(t *testing.T) {
	m, pkgs := loadSharedModule(t)

	// The module is clean, so the seeded fixtures ride along: their
	// findings are what the orders must agree on.
	sorted := append([]*Package(nil), pkgs...)
	for _, fixture := range []string{"qtokenfix", "ownerfix", "catmemfix", "frontendfix", "tenantfix", "interprocfix", "sumfix"} {
		pkg, err := m.LoadDir(filepath.Join("testdata", "src", fixture))
		if err != nil {
			t.Fatalf("loading %s: %v", fixture, err)
		}
		sorted = append(sorted, pkg)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	forgetSummaries(m)
	want := renderFindings(Run(m, sorted, DefaultAnalyzers()))
	if want == "" {
		t.Fatal("the module and its fixtures report nothing: the comparison would be vacuous")
	}
	check := func(name string, order []*Package) {
		forgetSummaries(m)
		if got := renderFindings(Run(m, order, DefaultAnalyzers())); got != want {
			t.Errorf("module and fixtures, %s package order: findings differ from sorted order\n--- sorted\n%s--- %s\n%s", name, want, name, got)
		}
	}
	reversed := append([]*Package(nil), sorted...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	check("reversed", reversed)
	for seed := int64(1); seed <= 3; seed++ {
		shuffled := append([]*Package(nil), sorted...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		check(fmt.Sprintf("shuffled (seed %d)", seed), shuffled)
	}

	// The fixtures with call cycles (sumfix: pingFree/pongFree, even/odd,
	// rec) and with helper chains (interprocfix): summarize each function
	// first in turn, then analyze the package.
	for _, fixture := range []string{"sumfix", "interprocfix"} {
		pkg, err := m.LoadDir(filepath.Join("testdata", "src", fixture))
		if err != nil {
			t.Fatalf("loading %s: %v", fixture, err)
		}
		forgetSummaries(m)
		want := renderFindings(Run(m, []*Package{pkg}, DefaultAnalyzers()))
		if want == "" {
			t.Fatalf("%s reports nothing: the comparison would be vacuous", fixture)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				forgetSummaries(m)
				m.ParamModes(fn)
				m.OwnedResults(fn)
				if got := renderFindings(Run(m, []*Package{pkg}, DefaultAnalyzers())); got != want {
					t.Errorf("%s entered from %s first: findings differ\n--- declaration order\n%s--- %s first\n%s", fixture, fd.Name.Name, want, fd.Name.Name, got)
				}
			}
		}
	}
}
