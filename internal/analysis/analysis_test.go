package analysis

import (
	"path/filepath"
	"regexp"
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

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determfix", DeterminismAnalyzer([]string{"determfix"}))
}

// TestRackFixture pins the determinism contract over the rack subsystem's
// temptations: wall-clock placement stamps, math/rand tie breaking, and
// map-ordered telemetry output.
func TestRackFixture(t *testing.T) {
	runFixture(t, "rackfix", DeterminismAnalyzer([]string{"rackfix"}))
}

func TestNonAllocFixture(t *testing.T) {
	runFixture(t, "nonallocfix", NonAllocAnalyzer())
}

// TestDTraceFixture pins the tracer record-path contract: arena events are
// written in place, retention appends are capacity-guarded, and labels are
// pre-interned ids — per-event map writes, appends, and string building are
// findings.
func TestDTraceFixture(t *testing.T) {
	runFixture(t, "dtracefix", NonAllocAnalyzer())
}

// TestStateguardFixture pins the complete-or-error mutation contract on
// //demi:stateguard fields, including path-sensitive guard placement.
func TestStateguardFixture(t *testing.T) {
	runFixture(t, "stateguardfix", StateguardAnalyzer())
}

// TestPolldisciplineFixture pins the run-to-completion contract on Poll
// methods and //demi:nonalloc functions: channel ops, helper-reached
// mutexes, goroutine spawns, and unbounded loops.
func TestPolldisciplineFixture(t *testing.T) {
	runFixture(t, "pollfix", PolldisciplineAnalyzer())
}

// TestCapescapeFixture pins capability confinement: package-variable
// stores, non-//demi:carrier exported fields, and escaping closures are
// findings; carriers, unexported fields, and scheduler-argument closures
// are not.
func TestCapescapeFixture(t *testing.T) {
	runFixture(t, "capescapefix", CapescapeAnalyzer())
}

// TestCyclebudgetFixture pins the //demi:budget gate against the static
// cost model, including the unbounded-recursion case.
func TestCyclebudgetFixture(t *testing.T) {
	runFixture(t, "budgetfix", CyclebudgetAnalyzer())
}

// TestInterprocFixture pins the interprocedural engine's headline wins:
// leaks through borrowing helpers, owned results of wrapper allocators,
// path-sensitive leaks of helper-produced buffers, and tokens stranded
// through inspection helpers.
func TestInterprocFixture(t *testing.T) {
	runFixture(t, "interprocfix", OwnershipAnalyzer(), QTokenAnalyzer())
}

// TestInterprocRegression is the tentpole's acceptance proof: every leak
// in interprocfix crosses a function boundary, so the pre-engine
// intra-function ownership checker reports nothing there while the
// summary-driven analyzer reports them all.
func TestInterprocRegression(t *testing.T) {
	m, _ := loadSharedModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "src", "interprocfix"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	intra := Run(m, []*Package{pkg}, []*Analyzer{ownershipAnalyzerIntra()})
	for _, f := range intra {
		t.Errorf("intra-function checker unexpectedly found: %s", f)
	}
	inter := Run(m, []*Package{pkg}, []*Analyzer{OwnershipAnalyzer()})
	if len(inter) < 3 {
		t.Fatalf("interprocedural checker found %d leak(s), want at least 3: %v", len(inter), inter)
	}
	wantSub := "is never freed, pushed, returned, or stored"
	found := false
	for _, f := range inter {
		if strings.Contains(f.Message, wantSub) {
			found = true
		}
	}
	if !found {
		t.Errorf("no interprocedural finding matches %q in %v", wantSub, inter)
	}
}

// TestModuleClean is the acceptance gate: demi-vet with the checked-in
// allowlist reports nothing on the module itself, and every allowlist
// entry still earns its keep.
func TestModuleClean(t *testing.T) {
	m, pkgs := loadSharedModule(t)
	allow, err := LoadAllowlist(filepath.Join(m.Root, "analysis.allow"))
	if err != nil {
		t.Fatalf("LoadAllowlist: %v", err)
	}
	findings := allow.Filter(Run(m, pkgs, DefaultAnalyzers()))
	for _, f := range findings {
		t.Errorf("module is not demi-vet clean: %s", f)
	}
	for _, e := range allow.Unused() {
		t.Errorf("analysis.allow:%d: stale entry (%s %s %q) suppresses nothing", e.Line, e.Analyzer, e.File, e.Contains)
	}
}

func TestAllowlistParse(t *testing.T) {
	al, err := ParseAllowlist(strings.NewReader(`
# comment
determinism internal/sim/time.go time.Now  # rationale
nonalloc sched.go dynamic call
`), "test")
	if err != nil {
		t.Fatalf("ParseAllowlist: %v", err)
	}
	if len(al.Entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(al.Entries))
	}
	if e := al.Entries[0]; e.Analyzer != "determinism" || e.File != "internal/sim/time.go" || e.Contains != "time.Now" {
		t.Errorf("entry 0 parsed as %+v", e)
	}
	if e := al.Entries[1]; e.Contains != "dynamic call" {
		t.Errorf("entry 1 message substring = %q, want with spaces", e.Contains)
	}

	if _, err := ParseAllowlist(strings.NewReader("tooshort entry\n"), "test"); err == nil {
		t.Error("malformed line should be a parse error")
	}
}

func TestAllowlistFilterAndUnused(t *testing.T) {
	al := &Allowlist{Entries: []AllowEntry{
		{Analyzer: "qtoken", File: "a.go", Contains: "dropped", Line: 1},
		{Analyzer: "qtoken", File: "b.go", Contains: "dropped", Line: 2},
	}}
	findings := []Finding{
		{Analyzer: "qtoken", File: "pkg/a.go", Message: "qtoken is dropped"},
		{Analyzer: "ownership", File: "pkg/a.go", Message: "buffer dropped"},
	}
	kept := al.Filter(findings)
	if len(kept) != 1 || kept[0].Analyzer != "ownership" {
		t.Fatalf("Filter kept %v, want only the ownership finding", kept)
	}
	unused := al.Unused()
	if len(unused) != 1 || unused[0].Line != 2 {
		t.Fatalf("Unused = %v, want only the b.go entry", unused)
	}
}

func TestLoadAllowlistMissingFile(t *testing.T) {
	al, err := LoadAllowlist(filepath.Join(t.TempDir(), "nope.allow"))
	if err != nil {
		t.Fatalf("missing allowlist should be empty, got error %v", err)
	}
	if len(al.Entries) != 0 {
		t.Fatalf("missing allowlist has %d entries", len(al.Entries))
	}
}
