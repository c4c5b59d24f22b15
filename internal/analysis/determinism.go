package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismConfig selects which packages live inside the simulated world
// and must therefore be bit-for-bit reproducible from a seed.
type DeterminismConfig struct {
	// PkgSubstrings: a package is checked when its import path contains any
	// of these substrings.
	PkgSubstrings []string
}

// defaultDeterministicPkgs covers everything that runs under the simulation
// harness: the simulated network and devices, the cooperative scheduler,
// the fault engine, the wire codecs, the TCP/UDP stacks, the core/memory
// layers they pull in, and the applications, baselines, workload
// generators and cost constants whose output the benches byte-compare.
// sim/rng.go's seeded xorshift is the one sanctioned randomness source;
// sim's virtual clock the one time source.
var defaultDeterministicPkgs = []string{
	"/internal/sim",
	"/internal/simnet",
	"/internal/sched",
	"/internal/faults",
	"/internal/wire",
	"/internal/catnip",
	"/internal/catmint",
	"/internal/catmem",
	"/internal/catloop",
	"/internal/cattree",
	"/internal/core",
	"/internal/memory",
	"/internal/dtrace",
	"/internal/dpdkdev",
	"/internal/rdmadev",
	"/internal/spdkdev",
	"/internal/multicore",
	"/internal/rack",
	"/internal/tenant",
	"/internal/reqsched",
	"/internal/baseline",
	"/internal/demi",
	"/internal/apps",
	"/internal/costmodel",
	"/internal/ycsb",
}

// bannedTimeFuncs are the time-package entry points that read or depend on
// the wall clock. time.Duration arithmetic and constants remain fine.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// DeterminismAnalyzer rejects nondeterminism inside the simulated world
// (paper §6: the simulation harness replays failures from a seed, which
// only works if sim-world code never consults the wall clock, the global
// math/rand stream, or Go's randomized map iteration order when producing
// output). pkgs overrides the default package set; nil keeps the default.
func DeterminismAnalyzer(pkgs []string) *Analyzer {
	cfg := DeterminismConfig{PkgSubstrings: pkgs}
	if cfg.PkgSubstrings == nil {
		cfg.PkgSubstrings = defaultDeterministicPkgs
	}
	a := &Analyzer{
		Name: "determinism",
		Doc:  "sim-world packages may not use wall-clock time, global math/rand, or map order in outputs",
	}
	a.Run = func(p *Pass) { runDeterminism(p, cfg) }
	return a
}

func runDeterminism(p *Pass, cfg DeterminismConfig) {
	checked := false
	for _, sub := range cfg.PkgSubstrings {
		if strings.Contains(p.Pkg.Path, sub) {
			checked = true
			break
		}
	}
	if !checked {
		return
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "use the seeded sim.Rand (internal/sim/rng.go) instead",
					"sim-world package imports %s: global RNG state breaks seeded replay", path)
			}
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch s := n.(type) {
			case *ast.CallExpr:
				checkTimeCall(p, info, s)
			case *ast.RangeStmt:
				checkMapRange(p, info, s)
			}
			return true
		})
	}
}

// checkTimeCall flags calls to the banned wall-clock functions of package
// time.
func checkTimeCall(p *Pass, info *types.Info, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !bannedTimeFuncs[sel.Sel.Name] {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "time" {
		return
	}
	p.Reportf(call.Pos(), "take time from the sim.Clock passed into this component",
		"sim-world code calls time.%s: wall-clock reads break seeded replay", sel.Sel.Name)
}

// checkMapRange flags ranging over a map when the loop body feeds values
// into an output sink (printing, writers, telemetry, marshalling):
// iteration order is randomized per run, so such loops emit
// nondeterministic output. Map ranges that only aggregate (sum, collect
// then sort) are fine.
func checkMapRange(p *Pass, info *types.Info, rng *ast.RangeStmt) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var sinkName string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sinkName != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := sinkCallName(info, call); name != "" {
			sinkName = name
			return false
		}
		return true
	})
	if sinkName == "" {
		return
	}
	p.Reportf(rng.Pos(), "collect the keys, sort them, and iterate the sorted slice",
		"map iteration order feeds %s: output depends on randomized map order", sinkName)
}

// sinkCallName classifies a call as an output sink, returning a printable
// name for the diagnostic ("" when it is not a sink).
func sinkCallName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	// fmt print family.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint") {
				return "fmt." + name
			}
			return ""
		}
	}
	// Writers and wire marshalling on any receiver.
	if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Marshal") {
		return "." + name
	}
	// Telemetry recording: only when the method's receiver comes from the
	// telemetry package (plain wg.Add/m.Set in a map range are fine).
	switch name {
	case "Inc", "Add", "Set", "Observe", "Record":
		if s, ok := info.Selections[sel]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil &&
				strings.HasSuffix(fn.Pkg().Path(), "internal/telemetry") {
				return "telemetry." + name
			}
		}
	}
	return ""
}
