package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// runOptions is what the command line decides for every workload.
type runOptions struct {
	in       *inputs // everything derived from -seed
	seconds  float64
	endToEnd bool // report the end-to-end metrics
	layers   bool // run the traced pass and report the per-layer metrics
	setups   int
	spanDir  string // where the traced pass dumps its spans; "" keeps them in memory
	// slices and sliceReqs shrink the run for the smoke tests; zero means
	// the fixed window and the workload's own slice size.
	slices, sliceReqs int
}

// measureWorkload runs the untraced pass, and with opt.layers the traced
// pass, and reduces them to named readings. drv holds the layer drivers'
// readings (nil when opt.layers is off).
func measureWorkload(wl *workload, opt runOptions, drv map[string]float64) *workloadReport {
	cfg := passConfig{wl: wl, in: opt.in, sliceReqs: wl.SliceReqs, slices: fixedSlices,
		seconds: opt.seconds, setups: opt.setups}
	if opt.sliceReqs > 0 {
		cfg.sliceReqs, cfg.slices = opt.sliceReqs, opt.slices
	}
	if !opt.endToEnd {
		// Per-layer only: the untraced pass is just the base for tracing
		// overhead and the window the counters are read over.
		cfg.seconds, cfg.setups = 0, 1
	}
	un, _ := runPass(cfg)
	wr := &workloadReport{Name: wl.Name, Clock: wl.Clock, GOMAXPROCS: un.Procs, SliceReqs: cfg.sliceReqs,
		Slices: len(un.Wall), Requests: un.AllRequests, Attempted: un.Attempted, Failed: un.Failed, Failures: un.Failures}
	if opt.endToEnd {
		wr.EndToEnd = endToEndReadings(un)
	}
	if !opt.layers {
		return wr
	}

	// Traced pass: a quarter of the fixed window, same slice size.
	tcfg := cfg
	tcfg.traced, tcfg.seconds, tcfg.setups = true, 0, 1
	tcfg.slices = max(cfg.slices/4, 1)
	tp, tr := runPass(tcfg)
	wr.Attempted += tp.Attempted
	wr.Failed += tp.Failed
	wr.Failures = append(wr.Failures, tp.Failures...)
	if wl.Clock == "virtual" {
		// The decorators must be transparent: the modelled latencies of
		// the traced requests are those of the same untraced requests.
		wr.Attempted++
		if n := len(tp.Virt); n == 0 || n > len(un.Virt) || !slices.Equal(tp.Virt, un.Virt[:n]) {
			wr.Failed++
			wr.Failures = append(wr.Failures, "traced pass changed the modelled latencies: decorators are not transparent")
		}
	}
	if opt.spanDir != "" {
		if err := tr.writeSpans(filepath.Join(opt.spanDir, "spans-"+wl.Name+".jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: span dump:", err)
		}
	}
	wr.PerLayer = perLayerReadings(wl, un, tp, tr.totals(), drv)
	return wr
}

func endToEndReadings(r *passResult) map[string]reading {
	setup, wall, cpu := summarize(r.SetupS), summarize(r.Wall), summarize(r.CPU)
	r50, r99 := summarize(r.R50), summarize(r.R99)
	out := map[string]reading{
		"setup_s":             {Value: setup.Median, Slices: &setup},
		"wall_ns_per_req":     {Value: wall.Best, Slices: &wall},
		"cpu_ns_per_req":      {Value: cpu.Best, Slices: &cpu},
		"allocs_per_req":      {Value: r.Allocs, Samples: r.Requests},
		"alloc_bytes_per_req": {Value: r.AllocBytes, Samples: r.Requests},
		"live_heap_kb":        {Value: r.LiveHeapKB},
		"rtt_p50_over_mean":   {Value: r50.Mean, Slices: &r50, Samples: r.LatSamples},
		"rtt_p99_over_mean":   {Value: r99.Mean, Slices: &r99, Samples: r.LatSamples},
	}
	for _, m := range endToEnd {
		rd := out[m.Name]
		rd.Unit = m.Unit
		out[m.Name] = rd
	}
	return out
}

// perLayerReadings assembles every per-layer metric: drivers (A), the traced
// pass tp reduced to lt (B) and the untraced pass un's counters (C). A metric that does
// not apply to the workload reads 0.
func perLayerReadings(wl *workload, un, tp *passResult, lt layerTotals, drv map[string]float64) map[string]reading {
	v := map[string]float64{}
	for name, x := range drv {
		v[name] = x
	}
	reqs := float64(un.Requests)
	c := un.Counters
	per := func(n uint64) float64 { return ratio(float64(n), reqs) }
	v["sched.polls_per_req"] = per(c.SchedPolls)
	v["sched.empty_scans_per_req"] = per(c.SchedEmpty)
	v["sim.events_per_req"] = per(c.SimEvents)
	v["catnip.tx_frames_per_req"] = per(c.TxFrames)
	v["catnip.pure_acks_per_req"] = per(c.PureAcks)
	v["catnip.zero_copy_tx_share"] = ratio(float64(c.ZeroCopyTx), float64(c.ZeroCopyTx+c.CopiedTx))
	v["catnip.retransmits"] = float64(c.Retransmits)
	v["dpdkdev.rx_drops"] = float64(c.RxDrops)
	v["memory.heap_allocs_per_req"] = per(c.HeapAllocs)
	v["memory.live_objects_end"] = float64(un.LiveEnd)
	v["catnip.heap_bytes_per_conn"] = un.HeapPerConn
	v["catnip.connect_wall_ns"] = un.ConnectWallNs
	v["catmem.stalls_per_req"] = per(c.CatmemStalls)
	v["cattree.appends_per_req"] = per(c.CattreeAppends)
	v["kv.aof_errors"] = float64(c.AOFErrors)
	p50 := summarize(un.P50).Best
	v["rtt_p50_us"], v["rtt_p99_us"] = p50, summarize(un.P99).Best
	v["model.rtt_p50_us"] = un.VirtP50us
	v["model.rtt_p99_us"] = un.VirtP99us
	if wl.Name == wlCatnap {
		v["catnap.over_net_p50"] = ratio(p50, drv["net.rtt_p50_us"])
	} else {
		v["net.rtt_p50_us"], v["net.rtt_p99_us"] = 0, 0
	}

	v["pdpix.push_ns"] = lt.selfNs[spPush]
	v["pdpix.pop_ns"] = lt.selfNs[spPop]
	v["pdpix.take_ns"] = lt.selfNs[spTake] + lt.selfNs[spWait]
	v["pdpix.step_ns"] = lt.selfNs[spStep]
	v["pdpix.block_ns"] = lt.idleNs
	v["pdpix.setup_ns"] = lt.selfNs[spSetup]
	v["pdpix.steps_per_req"] = lt.perReq[spStep]
	v["pdpix.blocks_per_req"] = lt.perReq[spBlock]
	v["dev.rx_burst_ns"] = lt.selfNs[spDevRx]
	v["dev.tx_burst_ns"] = lt.selfNs[spDevTx]
	v["dev.rx_empty_share"] = lt.rxEmptyShare
	v["dev.frames_per_burst"] = lt.framesPerBurst
	v["stor.push_ns"] = lt.selfNs[spStorPush]
	v["app.client_ns"] = lt.clientNs
	v["app.server_ns"] = lt.serverNs
	if wl.Name == wlKV {
		v["kv.get_wall_ns"], v["kv.set_wall_ns"] = lt.classNs[0], lt.classNs[1]
		v["kv.get_rtt_us"], v["kv.set_rtt_us"] = un.ClassVirtUs[0], un.ClassVirtUs[1]
	}
	v["trace.overhead_ns_per_req"] = summarize(tp.Wall).Best - summarize(un.Wall).Best
	v["trace.coverage_share"] = ratio(lt.covered, lt.wallNs)

	out := map[string]reading{}
	for _, m := range perLayer {
		out[m.Name] = reading{Value: v[m.Name], Unit: m.Unit}
	}
	r := out["model.rtt_p50_us"]
	r.Samples = len(un.Virt)
	out["model.rtt_p50_us"] = r
	return out
}

func printWorkload(w io.Writer, wr *workloadReport) {
	fmt.Fprintf(w, "\n== %s: clock %s, GOMAXPROCS %d, %d slices x %d requests\n",
		wr.Name, wr.Clock, wr.GOMAXPROCS, wr.Slices, wr.SliceReqs)
	if wr.Name == wlCatnap {
		fmt.Fprintf(w, "   (kernel loopback, not a real link)\n")
	}
	for _, m := range endToEnd {
		r, ok := wr.EndToEnd[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-7s", m.Name, r.Value, r.Unit)
		if s := r.Slices; s != nil {
			fmt.Fprintf(w, "  best %.4f  q1 %.4f  median %.4f  q3 %.4f  (n=%d)", s.Best, s.Q1, s.Median, s.Q3, s.N)
		}
		if r.Samples > 0 {
			fmt.Fprintf(w, "  samples %d", r.Samples)
		}
		if m.Name == "wall_ns_per_req" && r.Value > 0 {
			fmt.Fprintf(w, "  = %.0f req/s", 1e9/r.Value)
		}
		fmt.Fprintln(w)
	}
	if wr.PerLayer != nil {
		for _, m := range perLayer {
			r := wr.PerLayer[m.Name]
			fmt.Fprintf(w, "  %s %-28s %14.4f %s", m.Source, m.Name, r.Value, r.Unit)
			if r.Samples > 0 {
				fmt.Fprintf(w, "  samples %d", r.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  %-28s %14.6f ratio    %d failed of %d attempted\n", "fail_share",
		ratio(float64(wr.Failed), float64(wr.Attempted)), wr.Failed, wr.Attempted)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printList prints names and units only.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads (closed loop, one client, one outstanding request):")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-18s clock %-8s %6d requests/slice  %s\n", wl.Name, wl.Clock, wl.SliceReqs, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (measured ledger; tracing off):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-8s %s is better, bound %+.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.What)
	}
	fmt.Fprintln(w, "per-layer metrics (A driver, B traced spans, C package counters, D the untraced pass):")
	for _, m := range perLayer {
		var to []string
		for _, t := range m.Moves {
			to = append(to, t.Metric+" @ "+t.Workload)
		}
		fmt.Fprintf(w, "  %s %-28s %-8s %s  -> %s\n", m.Source, m.Name, m.Unit, m.What, strings.Join(to, ", "))
	}
}
