// Package analysis implements demi-vet, the repository's static analyzer.
// It enforces, at build time, the two PDPIX contracts whose breaches no
// test catches at run time (DESIGN.md §8 lists the planted defects):
//
//   - qtoken discipline: every qtoken produced by push/pop/accept/connect
//     must flow into a Wait call, be returned, or be stored — never dropped
//     (qtoken.go).
//   - buffer ownership: a DMA-heap buffer that is pushed may not be written
//     afterward, and every allocated buffer must be freed, pushed, returned
//     or stored on all paths — including push-failure paths, where
//     ownership does not transfer (ownership.go).
//
// Both rules sit on a shared dataflow core: a
// per-function control-flow graph (cfg.go) and an interprocedural summary
// engine (summary.go) that fixpoints parameter ownership modes and owned
// results over the module call graph. Summaries are memoized on first use,
// so Run is sequential.
//
// The analyzer is built exclusively on the standard library's go/parser,
// go/ast and go/types (with the source importer for the standard library),
// so it adds no dependencies and runs anywhere the toolchain does.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Analyzer string // which analyzer produced it
	Pos      token.Position
	File     string // module-root-relative path
	Message  string
	Hint     string // how to fix it
}

// String renders the finding as file:line:col: [analyzer] message (fix: hint).
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// An Analyzer is one multi-file rule checker run over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one package, with reporting plumbing.
type Pass struct {
	Mod *Module
	Pkg *Package

	analyzer *Analyzer
	sink     *[]Finding
}

// Reportf records a finding at pos. The hint is the suggested fix; pass ""
// when none applies.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.Mod.Root, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	*p.sink = append(*p.sink, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		File:     file,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// DefaultAnalyzers returns the two contract analyzers.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{QTokenAnalyzer(), OwnershipAnalyzer()}
}

// Run executes the analyzers over the given packages, returning findings
// sorted by position.
func Run(mod *Module, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Mod: mod, Pkg: pkg, analyzer: a, sink: &findings})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Pos.Line != findings[j].Pos.Line {
			return findings[i].Pos.Line < findings[j].Pos.Line
		}
		if findings[i].Pos.Column != findings[j].Pos.Column {
			return findings[i].Pos.Column < findings[j].Pos.Column
		}
		if findings[i].Analyzer != findings[j].Analyzer {
			return findings[i].Analyzer < findings[j].Analyzer
		}
		return findings[i].Message < findings[j].Message
	})
	return findings
}
