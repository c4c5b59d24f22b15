// Command benchmark is the measured ledger: a wall-clock benchmark of this
// repository's Go code, beside the modelled ledger (virtual time) that
// demi-bench tracks. It drives seven closed-loop workloads through the public
// functions of the libOSes, reports eight end-to-end metrics per workload
// with tracing off, and attributes each request's wall time to layers from
// outside the program: layer drivers, a traced pass through decorators on
// the seams the code already exposes, and the counters the packages export.
// README.md in this directory says how to read and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// commit is the repository commit the binary was built from; run.sh sets it
// at link time when the checkout is a git repository.
var commit = "unknown"

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all seven)")
		seed    = flag.Uint64("seed", 1, "generates engine seed, key sequence, fan-in order and payload bytes")
		seconds = flag.Float64("seconds", 0, "keep measuring slices past the fixed window until this much wall time is measured")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both. 0 and 1 end with one JSON result line")
		list    = flag.Bool("list", false, "print metric and workload names with their units, and stop")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	default:
		os.Exit(run(*names, *seed, *seconds, *trace))
	}
}

// reading is one metric's value. Slices carries the per-slice (or, for
// setup_s, per-set-up; for the latencies, per-chunk) distribution behind a
// wall-clock estimator; counts that repeat exactly have none.
type reading struct {
	Value   float64     `json:"value"`
	Unit    string      `json:"unit"`
	Slices  *sliceStats `json:"slices,omitempty"`
	Samples int         `json:"samples,omitempty"`
}

// workloadReport is one workload's section of the result file.
type workloadReport struct {
	Name       string             `json:"name"`
	Clock      string             `json:"clock"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	SliceReqs  int                `json:"slice_requests"`
	Slices     int                `json:"slices"`
	Requests   int                `json:"requests"`
	EndToEnd   map[string]reading `json:"end_to_end,omitempty"`
	PerLayer   map[string]reading `json:"per_layer,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
}

// report is the result file, benchmark/out/latest.json.
type report struct {
	Env       envInfo           `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

type envInfo struct {
	Commit   string `json:"commit"`
	Go       string `json:"go"`
	NumCPU   int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
	Seed     uint64 `json:"seed"`
	Loop     string `json:"loop"`
}

func environment(seed uint64) envInfo {
	env := envInfo{Commit: commit, Go: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: "unknown", Seed: seed,
		Loop: "closed loop, one client, one outstanding request"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// run measures the named workloads and returns the process exit code.
func run(names string, seed uint64, seconds float64, trace int) int {
	var wls []*workload
	if names == "" {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	}
	for _, name := range strings.Split(names, ",") {
		if name == "" {
			continue
		}
		wl := findWorkload(name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q; -list prints the names\n", name)
			return 2
		}
		wls = append(wls, wl)
	}
	rep := &report{Env: environment(seed)}
	fmt.Printf("measured ledger: commit %s, %s, %d CPUs (%s), seed %d; %s\n",
		rep.Env.Commit, rep.Env.Go, rep.Env.NumCPU, rep.Env.CPUModel, seed, rep.Env.Loop)

	outDir := outputDir()
	opt := runOptions{in: newInputs(seed), seconds: seconds, endToEnd: trace != 1, layers: trace != 0, setups: 3, spanDir: outDir}
	if trace == 0 {
		opt.setups = 5 // setup_s is bounded: steady it with more set-ups
	}
	var drv map[string]float64
	if opt.layers {
		// The layer drivers do not depend on the workload; the plain net
		// pair is only measured beside the workload it refers to.
		fmt.Printf("layer drivers...\n")
		withNet := slices.ContainsFunc(wls, func(wl *workload) bool { return wl.Name == wlCatnap })
		drv = runDrivers(opt.in, withNet)
	}
	failed := 0
	for _, wl := range wls {
		wr := measureWorkload(wl, opt, drv)
		printWorkload(os.Stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
		failed += wr.Failed
	}
	if err := writeReport(filepath.Join(outDir, "latest.json"), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if trace >= 0 && len(rep.Workloads) == 1 {
		printResultLine(rep.Workloads[0], trace)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d failed or incorrect operations\n", failed)
		return 1
	}
	return 0
}

// outputDir is benchmark/out, wherever the command was started from: the
// repository root (benchmark/run.sh) or this directory (go run .).
func outputDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResultLine prints the one-line result a harness reads: with trace 0
// every end-to-end metric, with trace 1 every per-layer metric.
func printResultLine(wr *workloadReport, trace int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	src := wr.EndToEnd
	if trace == 1 {
		src = wr.PerLayer
	}
	for name, r := range src {
		metrics[name] = value{r.Value, r.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	fmt.Println(string(b))
}
