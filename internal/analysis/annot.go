package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// annot.go owns the demi-vet source annotation, of which there is one:
//
//	//demi:nonalloc [rationale]       in a function's doc comment: the
//	                                  function may not allocate, directly
//	                                  or transitively (nonalloc.go).
//
// Grammar: the comment line starts with //demi:<name>, no space before
// demi — the directive form gofmt keeps at the end of a doc comment;
// anything after the first space is free-form rationale. Prose that quotes
// a marker (`// //demi:nonalloc ...`) does not start with one. Every other
// line that does start with //demi: is a finding (AnnotAnalyzer): an
// unknown name, or a known one where nothing reads it.

// markerName returns the <name> of a //demi:<name> comment line.
func markerName(c *ast.Comment) (string, bool) {
	rest, ok := strings.CutPrefix(c.Text, "//demi:")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, " ")
	return name, true
}

// hasMarker reports whether the comment group carries a //demi:<name> line.
func hasMarker(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if n, ok := markerName(c); ok && n == name {
			return true
		}
	}
	return false
}

// markerHomes says where each marker is read; markerSites visits exactly
// those places, so the index and the annot check cannot drift apart.
var markerHomes = map[string]string{
	"nonalloc": "a function's doc comment",
}

// markerSites calls visit(name, comments, id) for every place in f where
// marker name is read, id being the identifier it would annotate.
func markerSites(f *ast.File, visit func(name string, doc *ast.CommentGroup, id *ast.Ident)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			visit("nonalloc", fd.Doc, fd.Name)
		}
	}
}

// indexAnnotations records one file's annotated functions (see index).
func (m *Module) indexAnnotations(p *Package, f *ast.File) {
	markerSites(f, func(name string, doc *ast.CommentGroup, id *ast.Ident) {
		if !hasMarker(doc, name) {
			return
		}
		if fn, ok := p.Info.Defs[id].(*types.Func); ok {
			m.nonalloc[fn] = true
		}
	})
}

// IsNonAlloc reports whether fn carries the //demi:nonalloc annotation.
func (m *Module) IsNonAlloc(fn *types.Func) bool {
	m.index()
	return m.nonalloc[fn]
}

// AnnotAnalyzer makes the annotation grammar loud. A marker the index does
// not read — a misspelled name, a value the grammar does not have, a
// marker a blank line has detached from its declaration, a marker on the
// wrong kind of declaration — used to be skipped in silence, which turns
// the check it was meant to request off without a trace.
func AnnotAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "annot",
		Doc:  "every //demi: comment line must be a known marker placed where that marker is read",
	}
	a.Run = func(p *Pass) { runAnnot(p) }
	return a
}

func runAnnot(p *Pass) {
	for _, f := range p.Pkg.Files {
		home := make(map[*ast.CommentGroup]string) // comment group -> the marker read there
		markerSites(f, func(name string, doc *ast.CommentGroup, _ *ast.Ident) { home[doc] = name })
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := markerName(c)
				if !ok || home[cg] == name {
					continue
				}
				if where, known := markerHomes[name]; known {
					p.Reportf(c.Slash, "move it into "+where+", with no blank line between the comment and the declaration",
						"//demi:%s is not read here: it belongs in %s", name, where)
				} else {
					p.Reportf(c.Slash, "the one marker is //demi:nonalloc, optionally followed by a space and a rationale",
						"unknown annotation //demi:%s", name)
				}
			}
		}
	}
}
