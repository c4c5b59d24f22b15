package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per (metric, workload) present in both result
// files: both values, the ratio new/old (base: old), and a verdict against
// the benchmark's bound — better, within, worse, or unresolved when the old
// run's own inter-quartile slice spread exceeds the bound (the noise floor:
// a difference smaller than what one run shows against itself settles
// nothing). The modelled ledger allows no change at all.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old %s (commit %s, seed %d)\nnew %s (commit %s, seed %d)\n",
		oldPath, oldRep.Env.Commit, oldRep.Env.Seed, newPath, newRep.Env.Commit, newRep.Env.Seed)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, ow := range oldRep.Workloads {
		var nw *workloadReport
		for _, c := range newRep.Workloads {
			if c.Name == ow.Name {
				nw = c
			}
		}
		if nw == nil {
			continue
		}
		for _, m := range endToEnd {
			compareRow(w, ow.Name, m, ow.EndToEnd, nw.EndToEnd)
		}
		for _, m := range perLayer {
			if exact(m.Name) {
				compareRow(w, ow.Name, m, ow.PerLayer, nw.PerLayer)
			}
		}
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "%-16s %-22s %14d %14d %9s %7s  worse\n", ow.Name, "failed", ow.Failed, nw.Failed, "", "0")
		}
	}
	return nil
}

func compareRow(w io.Writer, workload string, m metric, oldSet, newSet map[string]reading) {
	o, ok1 := oldSet[m.Name]
	n, ok2 := newSet[m.Name]
	if !ok1 || !ok2 {
		return
	}
	spread := 0.0
	if o.Slices != nil {
		spread = o.Slices.spread()
	}
	fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %9.4f %6.0f%%  %s\n", workload, m.Name, o.Value, n.Value,
		ratio(n.Value, o.Value), m.Bound*100, verdict(m, o.Value, n.Value, spread))
}

// verdict judges new against old for one metric; spread is the old run's
// inter-quartile slice spread as a share of its median.
func verdict(m metric, old, new, spread float64) string {
	if spread > m.Bound {
		return fmt.Sprintf("unresolved (old run's own spread %.1f%% exceeds the bound)", spread*100)
	}
	if exact(m.Name) {
		if new != old {
			return "changed: a change to the model, not a speed-up"
		}
		return "within"
	}
	worse := ratio(new-old, old) // share of the old value by which new is worse
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "within"
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
