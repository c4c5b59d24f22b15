package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSliceEstimators(t *testing.T) {
	// statistics.quantiles([9, 2, 7, 4, 5, 11, 3, 8, 6, 10], n=4) is
	// [3.75, 6.5, 9.25] in Python.
	s := summarize([]float64{9, 2, 7, 4, 5, 11, 3, 8, 6, 10})
	if s.Best != 2 || !near(s.Q1, 3.75) || !near(s.Median, 6.5) || !near(s.Q3, 9.25) || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if !near(s.spread(), (9.25-3.75)/6.5) {
		t.Errorf("spread = %v", s.spread())
	}
	// statistics.quantiles([1, 2, 3], n=4) is [1.0, 2.0, 3.0].
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize of three = %+v", s)
	}
	if s := summarize(nil); s != (sliceStats{}) {
		t.Errorf("summarize of nothing = %+v", s)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []uint32 {
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(n - i) // n..1, unsorted
		}
		return v
	}
	if p, err := percentile(mk(1000), 0.99); err != nil || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 beyond", p, err)
	}
	if _, err := percentile(mk(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if p, err := percentile(mk(20), 0.50); err != nil || p != 10 {
		t.Errorf("p50 of 1..20 = %v, %v", p, err)
	}
	if _, err := percentile(mk(19), 0.50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

// TestSpanSelfTime builds this tree by hand on a fake clock and checks the
// arithmetic: self time is duration minus child coverage.
//
//	client: req 0..100
//	          push 10..30
//	            dev.tx 15..25
//	          wait 40..90
//	            take 40..45, step 45..60 (dev.rx 50..55), block 60..85, take 85..90
//	server: wait 0..100
//	          block 0..62, step 62..80, block 80..100
func TestSpanSelfTime(t *testing.T) {
	var now int64
	tr := newTracer(1, 2, func() int64 { return now })
	cli, srv := tr.node("client"), tr.node("server")
	at := func(v int64) int64 { now = v; return v }
	tr.req.Store(1)
	tr.winStart.Store(0)
	tr.winEnd.Store(100)

	srv.openAt(spWait, at(0))
	srv.enterBlock(0)
	cli.openAt(spReq, 0)
	cli.openAt(spPush, at(10))
	cli.openAt(spDevTx, at(15))
	cli.closeAt(1, at(25))
	cli.closeAt(0, at(30))
	cli.openAt(spWait, at(40))
	cli.openAt(spTake, 40)
	cli.closeAt(0, at(45))
	cli.openAt(spStep, 45)
	cli.openAt(spDevRx, at(50))
	cli.closeAt(0, at(55))
	cli.closeAt(0, at(60))
	cli.enterBlock(60) // both parked from 60
	srv.exitBlock(at(62))
	srv.openAt(spStep, 62)
	srv.closeAt(0, at(80))
	srv.enterBlock(80) // both parked again from 80
	cli.exitBlock(at(85))
	cli.openAt(spTake, 85)
	cli.closeAt(0, at(90))
	cli.closeAt(0, 90)
	cli.closeAt(0, at(100))
	srv.exitBlock(100)
	srv.closeAt(0, 100)

	lt := tr.totals()
	want := map[spanKind]float64{
		spReq:   100 - 20 - 50, // less push and wait
		spPush:  20 - 10,
		spDevTx: 10,
		spWait:  50 - 5 - 15 - 25 - 5,
		spTake:  10,
		spStep:  15 - 5 + 18, // client's less its device span, plus the server's
		spDevRx: 5,
	}
	for k := spanKind(0); k < numKinds; k++ {
		if lt.selfNs[k] != want[k] {
			t.Errorf("self time of %s = %v, want %v", kindNames[k], lt.selfNs[k], want[k])
		}
	}
	if lt.idleNs != (62-60)+(85-80) {
		t.Errorf("time with every node parked = %v, want 7", lt.idleNs)
	}
	if lt.serverNs != 0 || lt.clientNs != 30 {
		t.Errorf("app time: server %v client %v, want 0 and 30", lt.serverNs, lt.clientNs)
	}
	// Every instant of the 100 ns belongs to exactly one bucket.
	if lt.covered != 100 {
		t.Errorf("covered = %v, want 100", lt.covered)
	}
	if lt.rxEmptyShare != 1 || lt.perReq[spBlock] != 3 {
		t.Errorf("rx empty share %v, blocks %v", lt.rxEmptyShare, lt.perReq[spBlock])
	}
}

// TestFoldKeepsOpenSpans fills a node's buffer so that it folds with spans
// still open, and checks nothing is lost or counted twice.
func TestFoldKeepsOpenSpans(t *testing.T) {
	var now int64
	tr := newTracer(0, 1, func() int64 { now++; return now })
	tr.winStart.Store(0)
	n := tr.node("n")
	n.open(spWait)
	const inner = 3 * spanBufCap
	for i := 0; i < inner; i++ {
		n.open(spTake)
		n.close(0)
	}
	n.close(0)
	tr.winEnd.Store(now + 1)
	lt := tr.totals()
	if got := lt.perReq[spTake]; got != inner {
		t.Errorf("take spans counted = %v, want %d", got, inner)
	}
	if lt.selfNs[spTake] != inner || lt.selfNs[spWait] != float64(now-1)-inner {
		t.Errorf("self times take %v wait %v over %d ticks", lt.selfNs[spTake], lt.selfNs[spWait], now)
	}
}

// benchmarkJSON is the shape the contract fixes for ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func fromCatalogue() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, wl := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{wl.Name, wl.Why + " [clock " + wl.Clock + "]"})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{m.Name, m.Unit, m.Better})
	}
	return b
}

func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(fromCatalogue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json and catalog.go disagree; go test -run TestBenchmarkJSON -update rewrites the file")
	}

	// The limits of the file's contract.
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(got) > 64<<10 {
		t.Errorf("file is %d bytes, limit 64 KiB", len(got))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed characters or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range b.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || len(b.Command) > 32 {
		t.Errorf("run_seconds %d, paths %v, command %v", b.RunSeconds, b.Paths, b.Command)
	}

	// Every "moves" target names an end-to-end metric and a workload.
	for _, m := range perLayer {
		if !strings.Contains("ABCD", m.Source) || len(m.Source) != 1 {
			t.Errorf("%s has source %q", m.Name, m.Source)
		}
		for _, to := range m.Moves {
			if findMetric(endToEnd, to.Metric) == nil || findWorkload(to.Workload) == nil {
				t.Errorf("%s is said to move %s @ %s, which does not exist", m.Name, to.Metric, to.Workload)
			}
		}
	}
}

// TestSmoke runs all seven workloads small: two slices of 50 requests, with
// the traced pass. No operation may fail (which covers byte-for-byte
// replies, leak-free DMA heaps, no retransmits or drops, and traced
// modelled latencies equal to the untraced ones), and a second run with the
// same seed must reproduce the modelled latencies exactly.
func TestSmoke(t *testing.T) {
	opt := runOptions{in: newInputs(7), endToEnd: true, layers: true, setups: 1, slices: 2, sliceReqs: 50}
	for i := range workloads {
		wl := &workloads[i]
		wr := measureWorkload(wl, opt, nil)
		if wr.Failed != 0 || wr.Attempted < 100 {
			t.Errorf("%s: %d failed of %d attempted: %v", wl.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		if live := wr.PerLayer["memory.live_objects_end"].Value; live != 0 {
			t.Errorf("%s: %v DMA-heap objects still live", wl.Name, live)
		}
		for _, m := range endToEnd {
			if _, ok := wr.EndToEnd[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s is not reported", wl.Name, m.Name)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", wl.Name, len(wr.PerLayer), len(perLayer))
		}
		if wl.Clock != "virtual" {
			continue
		}
		cfg := passConfig{wl: wl, in: opt.in, sliceReqs: opt.sliceReqs, slices: opt.slices, setups: 1}
		a, _ := runPass(cfg)
		b, _ := runPass(cfg)
		if len(a.Virt) != opt.slices*opt.sliceReqs || !slices.Equal(a.Virt, b.Virt) {
			t.Errorf("%s: two runs with one seed disagree on the modelled latencies", wl.Name)
		}
		if cov := wr.PerLayer["trace.coverage_share"].Value; cov < 0.9 || cov > 1.1 {
			t.Errorf("%s: span self times cover %.3f of the traced wall time", wl.Name, cov)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := *findMetric(endToEnd, "wall_ns_per_req")
	for _, c := range []struct {
		old, new, spread float64
		want             string
	}{
		{100, 100 * (1 + wall.Bound/2), 0, "within"},
		{100, 100 * (1 + 2*wall.Bound), 0, "worse"},
		{100, 100 * (1 - 2*wall.Bound), 0, "better"},
	} {
		if got := verdict(wall, c.old, c.new, c.spread); got != c.want {
			t.Errorf("verdict(%v -> %v) = %q, want %q", c.old, c.new, got, c.want)
		}
	}
	if got := verdict(wall, 100, 200, 2*wall.Bound); got == "worse" {
		t.Error("an old run noisier than the bound must leave the pair unresolved")
	}
	model := *findMetric(perLayer, "model.rtt_p50_us")
	if verdict(model, 5.305, 5.305, 0) != "within" || verdict(model, 5.305, 5.304, 0) == "better" {
		t.Error("the modelled ledger allows no change, and a lower value is not a speed-up")
	}
}
