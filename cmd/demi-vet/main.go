// Command demi-vet runs the repository's static analyzers over the module:
// qtoken discipline and buffer ownership. It is built exclusively on the
// standard library's go/parser, go/ast and go/types.
//
// Usage:
//
//	go run ./cmd/demi-vet ./...
//	go run ./cmd/demi-vet ./internal/apps/... ./examples/...
//	go run ./cmd/demi-vet -json ./...           # machine-readable findings
//	go run ./cmd/demi-vet -github ./...         # GitHub workflow annotations
//	go run ./cmd/demi-vet -budget 25s ./...     # fail if the run exceeds 25s
//
// Exit status: 0 no findings, 1 findings (or -budget exceeded), 2 usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"demikernel/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	start := time.Now()
	fs := flag.NewFlagSet("demi-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	github := fs.Bool("github", false, "emit findings as GitHub workflow ::error annotations")
	budget := fs.Duration("budget", 0, "fail (exit 1) if the whole run exceeds this wall time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "demi-vet:", err)
		return 2
	}
	mod, err := analysis.LoadModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "demi-vet:", err)
		return 2
	}

	pkgs, err := selectPackages(mod, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "demi-vet:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "demi-vet: no packages matched", strings.Join(patterns, " "))
		return 2
	}

	findings := analysis.Run(mod, pkgs, analysis.DefaultAnalyzers())
	switch {
	case *jsonOut:
		if err := printJSON(findings); err != nil {
			fmt.Fprintln(os.Stderr, "demi-vet:", err)
			return 2
		}
	case *github:
		for _, f := range findings {
			printGitHub(f)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	status := 0
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "demi-vet: %d finding(s)\n", len(findings))
		status = 1
	}
	// The wall-clock regression gate: CI runs with -budget so that analysis
	// slowdowns (a summary blow-up, an accidental quadratic walk) fail the
	// lint job instead of silently eating the CI budget.
	if *budget > 0 {
		if wall := time.Since(start); wall > *budget {
			fmt.Fprintf(os.Stderr, "demi-vet: run took %s, over the -budget of %s\n",
				wall.Round(1e6), *budget)
			status = 1
		}
	}
	return status
}

// jsonFinding is the -json wire shape of one finding, stable for tooling.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

func printJSON(findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.File,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
			Hint:     f.Hint,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printGitHub emits one finding as a GitHub Actions workflow command, so
// CI findings annotate the diff view directly. Newlines and percents in
// the message must be escaped per the workflow-command grammar.
func printGitHub(f analysis.Finding) {
	msg := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
	if f.Hint != "" {
		msg += " (fix: " + f.Hint + ")"
	}
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(msg)
	fmt.Printf("::error file=%s,line=%d,col=%d,title=demi-vet %s::%s\n",
		f.File, f.Pos.Line, f.Pos.Column, f.Analyzer, esc)
}

// selectPackages resolves the command-line patterns against the loaded
// module. "./..." (or a bare directory with /... suffix) selects every
// package under that directory; a plain directory selects its package.
func selectPackages(mod *analysis.Module, cwd string, patterns []string) ([]*analysis.Package, error) {
	var roots []string // absolute dir prefixes selecting package trees
	var exact []string // absolute dirs selecting single packages
	for _, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "/...")
		if dir == "" || dir == "." {
			dir = cwd
		}
		abs, err := filepath.Abs(filepath.Join(cwd, dir))
		if filepath.IsAbs(dir) {
			abs, err = dir, nil
		}
		if err != nil {
			return nil, err
		}
		if recursive {
			if abs == mod.Root {
				return mod.Pkgs, nil
			}
			roots = append(roots, abs)
		} else {
			exact = append(exact, abs)
		}
	}
	var out []*analysis.Package
	for _, p := range mod.Pkgs {
		dir := filepath.Join(mod.Root, strings.TrimPrefix(p.Path, mod.Path))
		keep := false
		for _, r := range roots {
			if dir == r || strings.HasPrefix(dir, r+string(filepath.Separator)) {
				keep = true
			}
		}
		for _, e := range exact {
			if dir == e {
				keep = true
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out, nil
}
