package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. "demikernel/internal/wire"
	Types *types.Package
	Files []*ast.File
	Info  *types.Info
}

// A Module holds every loaded package of one Go module plus the
// cross-package indexes the analyzers share (function declarations and
// the interprocedural summaries). Loading uses only
// the standard library: go/parser for syntax, go/types for semantics,
// and the stdlib source importer for standard-library dependencies.
type Module struct {
	Fset *token.FileSet
	Root string // directory containing go.mod
	Path string // module path from the go.mod module directive
	Pkgs []*Package

	byPath map[string]*Package
	std    types.Importer

	// Cross-package indexes, built lazily by index().
	decls   map[*types.Func]*ast.FuncDecl
	declPkg map[*types.Func]*Package
	indexed int // number of packages already indexed

	sums *summaries // interprocedural summary engine state (see summary.go)
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(name), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every package of the module containing
// dir (test files and testdata trees excluded). Standard-library imports
// are type-checked from source by the stdlib importer; module-internal
// imports are resolved recursively by the loader itself.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	m := newModule(root, modPath)
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := filepath.Base(p)
			if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := m.LoadDir(d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newModule returns a module with nothing loaded yet.
func newModule(root, modPath string) *Module {
	fset := token.NewFileSet()
	return &Module{
		Fset:   fset,
		Root:   root,
		Path:   modPath,
		byPath: make(map[string]*Package),
		std:    importer.ForCompiler(fset, "source", nil),
	}
}

// LoadDir loads the package in dir (which must be inside the module tree),
// returning the cached package if it was already loaded. It works for
// testdata fixture packages too, which the module walk skips.
func (m *Module) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, m.Root)
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	return m.load(path)
}

// load parses and type-checks the package with the given module-internal
// import path, memoized.
func (m *Module) load(path string) (*Package, error) {
	if p, ok := m.byPath[path]; ok {
		return p, nil
	}
	dir := filepath.Join(m.Root, strings.TrimPrefix(path, m.Path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var hard []error
	conf := types.Config{
		Importer: (*moduleImporter)(m),
		Error: func(err error) {
			// Tolerate soft errors ("declared and not used"): analyzer
			// fixtures intentionally leave values on the floor.
			if te, ok := err.(types.Error); ok && te.Soft {
				return
			}
			hard = append(hard, err)
		},
	}
	tpkg, _ := conf.Check(path, m.Fset, files, info)
	if len(hard) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, hard[0])
	}
	p := &Package{Path: path, Types: tpkg, Files: files, Info: info}
	m.byPath[path] = p
	m.Pkgs = append(m.Pkgs, p)
	return p, nil
}

// moduleImporter adapts Module to types.Importer: module-internal paths are
// loaded from source by the module loader, everything else (the standard
// library) is delegated to the stdlib source importer.
type moduleImporter Module

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	m := (*Module)(mi)
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.std.Import(path)
}

// LookupNamed finds the named type name in the loaded package whose import
// path ends in pathSuffix (e.g. "internal/core", "QToken"). It returns nil
// if no such package or type is loaded.
func (m *Module) LookupNamed(pathSuffix, name string) *types.Named {
	for _, p := range m.Pkgs {
		if !strings.HasSuffix(p.Path, pathSuffix) {
			continue
		}
		obj := p.Types.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if n, ok := obj.Type().(*types.Named); ok {
			return n
		}
	}
	return nil
}

// index builds (or extends, after fixture loads) the cross-package maps
// from *types.Func to declaration. Every accessor that reads them calls it
// first, so they answer on a freshly loaded module.
func (m *Module) index() {
	if m.decls == nil {
		m.decls = make(map[*types.Func]*ast.FuncDecl)
		m.declPkg = make(map[*types.Func]*Package)
	}
	for ; m.indexed < len(m.Pkgs); m.indexed++ {
		p := m.Pkgs[m.indexed]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						m.decls[fn] = fd
						m.declPkg[fn] = p
					}
				}
			}
		}
	}
}
