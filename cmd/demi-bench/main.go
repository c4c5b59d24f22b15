// demi-bench regenerates the paper's tables and figures on the simulated
// testbed. Each subcommand reproduces one artifact; `all` runs everything.
//
// Usage:
//
//	demi-bench [-json] [-telemetry] table2|table3|fig5|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|fig12|chain|ablation|scaleout|rack|chaos|tenantchaos|all
//
// Flags may appear before or after the experiment name:
//
//	-json       also write every table to BENCH_results.json
//	-telemetry  dump every simulated world an experiment runs (registry
//	            snapshots + qtoken flight-recorder spans) to stdout as the
//	            world finishes, ahead of the experiment's tables
//
// A smoke check of one table is `go run ./cmd/demi-bench <experiment>`; the
// tables are deterministic, so two runs print the same bytes.
package main

import (
	"fmt"
	"os"

	"demikernel/internal/bench"
)

type runner struct {
	name string
	run  func() ([]*bench.Table, error)
}

func one(f func() (*bench.Table, error)) func() ([]*bench.Table, error) {
	return func() ([]*bench.Table, error) {
		t, err := f()
		if err != nil {
			return nil, err
		}
		return []*bench.Table{t}, nil
	}
}

func main() {
	runners := []runner{
		{"table1", func() ([]*bench.Table, error) { return []*bench.Table{bench.Table1()}, nil }},
		{"table2", func() ([]*bench.Table, error) { return []*bench.Table{bench.Table2()}, nil }},
		{"table3", func() ([]*bench.Table, error) { return []*bench.Table{bench.Table3()}, nil }},
		{"fig5", one(bench.Fig5)},
		{"fig6a", one(bench.Fig6a)},
		{"fig6b", one(bench.Fig6b)},
		{"fig7", one(bench.Fig7)},
		{"fig8", one(bench.Fig8)},
		{"fig9", one(bench.Fig9)},
		{"fig10", one(bench.Fig10)},
		{"fig11", one(bench.Fig11)},
		{"fig12", one(bench.Fig12)},
		{"chain", bench.Chain},
		{"ablation", bench.Ablations},
		{"scaleout", bench.ScaleOut},
		{"rack", bench.Rack},
		{"chaos", bench.Chaos},
	}
	// Soak-only runners are selectable by name but excluded from `all`:
	// their tables are isolation-gate evidence, not paper artifacts, so
	// keeping them out of `all` keeps the committed BENCH_results.json
	// stable.
	soak := []runner{
		{"tenantchaos", bench.TenantChaos},
	}
	known := append(append([]runner{}, runners...), soak...)
	var jsonOut, telemetryOut bool
	var want string
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-json", "--json":
			jsonOut = true
		case "-telemetry", "--telemetry":
			telemetryOut = true
		default:
			if want != "" {
				usage(known)
			}
			want = arg
		}
	}
	if want == "" {
		usage(known)
	}
	var selected []runner
	if want == "all" {
		selected = runners
	} else {
		for _, r := range known {
			if r.name == want {
				selected = []runner{r}
			}
		}
	}
	if len(selected) == 0 {
		usage(known)
	}
	if telemetryOut {
		bench.SetTelemetrySink(os.Stdout)
	}
	var all []*bench.Table
	for _, r := range selected {
		tables, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "demi-bench %s: %v\n", r.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Print(os.Stdout)
		}
		all = append(all, tables...)
	}
	if jsonOut {
		f, err := os.Create("BENCH_results.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "demi-bench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteTablesJSON(f, all); err != nil {
			fmt.Fprintf(os.Stderr, "demi-bench: write BENCH_results.json: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote BENCH_results.json (%d tables)\n", len(all))
	}
}

func usage(runners []runner) {
	fmt.Fprint(os.Stderr, "usage: demi-bench [-json] [-telemetry] <experiment>\nexperiments: all")
	for _, r := range runners {
		fmt.Fprintf(os.Stderr, " %s", r.name)
	}
	fmt.Fprintln(os.Stderr)
	os.Exit(2)
}
