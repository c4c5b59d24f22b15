package main

// The catalogue of metrics. BENCHMARK.json lists the same names with their
// unit, direction and bound (a test holds the two together); what its fixed
// shape has no room for — each per-layer metric's layer, source and the
// end-to-end metric and workload it is expected to move — lives here and is
// printed by -list.

// metric describes one reading.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the old median it may worsen by
	// Per-layer only.
	Source string   // A driver, B spans of the traced pass, C package counters, D the untraced pass
	Moves  []target // what it should move; the first is primary
	What   string
}

// target is an (end-to-end metric, workload) pair.
type target struct{ Metric, Workload string }

const (
	wlEcho, wlStream, wlFanin, wlChurn = "tcp_echo_64b", "tcp_stream_64k", "tcp_fanin_1k", "tcp_churn"
	wlChain, wlKV, wlCatnap            = "catmem_chain", "kv_aof_mixed", "catnap_echo_64b"
)

// endToEnd are the measured-ledger metrics a user of the system would see.
// All are wall clock, CPU or Go allocations, taken with tracing off.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "build topology, start servers, open connections, preload keys, warm-up slice; median of the run's set-ups"},
	{Name: "wall_ns_per_req", Unit: "ns", Better: "lower", Bound: 0.25,
		What: "wall time per request, best slice"},
	{Name: "cpu_ns_per_req", Unit: "ns", Better: "lower", Bound: 0.25,
		What: "process user+system CPU (getrusage) per request, best slice"},
	{Name: "allocs_per_req", Unit: "count", Better: "lower", Bound: 0.01,
		What: "Go heap objects allocated per request over the fixed window"},
	{Name: "alloc_bytes_per_req", Unit: "B", Better: "lower", Bound: 0.02,
		What: "Go heap bytes allocated per request over the fixed window"},
	{Name: "live_heap_kb", Unit: "KiB", Better: "lower", Bound: 0.10,
		What: "HeapAlloc after a GC at the end of the fixed window, connections open, less the pre-build heap"},
	{Name: "rtt_p50_over_mean", Unit: "ratio", Better: "lower", Bound: 0.10,
		What: "median client-observed wall latency over the mean (which is wall_ns_per_req: one request outstanding); per chunk of >= 1000 requests, mean over the chunks"},
	{Name: "rtt_p99_over_mean", Unit: "ratio", Better: "lower", Bound: 0.25,
		What: "same for the p99: how heavy the tail is; every chunk has at least 10 samples beyond its p99"},
}

func moves(m string, ws ...string) []target {
	var t []target
	for _, w := range ws {
		t = append(t, target{m, w})
	}
	return t
}

var simulated = []string{wlEcho, wlStream, wlFanin, wlChurn, wlChain, wlKV}

// perLayer are the single-layer metrics; layers are this repo's package
// names (the prefix of each metric name).
var perLayer = []metric{
	// A: drivers.
	{Name: "wire.tcp_marshal_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho),
		What: "TCPHeader.Marshal, 64 B payload, checksum included"},
	{Name: "wire.tcp_parse_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho),
		What: "ParseEth+ParseIPv4+ParseTCP, 64 B payload"},
	{Name: "wire.checksum_1460_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlStream),
		What: "Checksum over 1460 B"},
	{Name: "memory.alloc_free_64_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho, wlChain),
		What: "Heap.Alloc(64)+Free"},
	{Name: "memory.alloc_free_64_allocs", Unit: "count", Better: "lower", Source: "A", Moves: moves("allocs_per_req", wlEcho, wlChain),
		What: "Go allocations per Heap.Alloc(64)+Free"},
	{Name: "memory.alloc_free_64k_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlStream),
		What: "Heap.Alloc(65536)+Free"},
	{Name: "memory.copyfrom_64_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlKV),
		What: "CopyFrom of 64 B, then Free"},
	{Name: "sched.switch_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho),
		What: "RunOne with one yielding coroutine"},
	{Name: "sched.scan_1k_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlFanin),
		What: "RunOne with 1024 blocked coroutines and one runnable"},
	{Name: "sched.scan_8k_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlFanin),
		What: "RunOne with 8192 blocked coroutines and one runnable"},
	{Name: "sched.spawn_complete_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlChurn),
		What: "Spawn a coroutine that finishes on its first poll, and poll it"},
	{Name: "core.token_cycle_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho, wlChain),
		What: "TokenTable.New, Op.Complete, TryTake"},
	{Name: "core.token_cycle_allocs", Unit: "count", Better: "lower", Source: "A", Moves: moves("allocs_per_req", wlEcho, wlChain),
		What: "Go allocations per token cycle"},
	{Name: "core.waitany_1k_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlFanin),
		What: "Waiter.WaitAny over 1024 tokens, one complete"},
	{Name: "dpdkdev.rx_frame_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlStream),
		What: "InjectRx x32, RxBurst(32), Mbuf.Free, per frame"},
	{Name: "dpdkdev.tx_frame_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlStream),
		What: "TxBurst of 32 frames, per frame; the engine drains outside the timed region"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", simulated...),
		What: "At x100k no-op events at scattered times, then Run, per event"},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlChain, wlEcho),
		What: "two nodes wake each other and Park, per handoff"},
	{Name: "simnet.hop_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho),
		What: "Port.Send, switch, peer Recv, per frame"},
	{Name: "catmem.push_pop_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlChain),
		What: "64 B buffer handed to a peer libOS in the same Region and back"},
	{Name: "cattree.append_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlKV),
		What: "64 B record Push+Wait on an Optane-parameter device"},
	{Name: "cattree.append_allocs", Unit: "count", Better: "lower", Source: "A", Moves: moves("allocs_per_req", wlKV),
		What: "Go allocations per append"},
	{Name: "kv.resp_parse_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlKV),
		What: "ParseCommand on a 64 B SET"},
	{Name: "kv.store_exec_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlKV),
		What: "Store.Execute on a 64 B SET"},
	{Name: "telemetry.record_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho),
		What: "Counter.Inc + Histogram.Observe: the always-on cost"},
	{Name: "telemetry.flight_span_ns", Unit: "ns", Better: "lower", Source: "A",
		What: "one FlightRecorder.Record; guard only, no end-to-end metric may move"},
	{Name: "dtrace.record_ns", Unit: "ns", Better: "lower", Source: "A",
		What: "StartRequest + Hop.OpSpan + EndRequest at 100 % sampling; guard only"},
	{Name: "floor.rawdpdk_wall_ns", Unit: "ns", Better: "lower", Source: "A", Moves: moves("wall_ns_per_req", wlEcho),
		What: "baseline.RawDPDKPing against MessageForwarder on the tcp_echo_64b topology: sim+simnet+dpdkdev alone"},
	{Name: "net.rtt_p50_us", Unit: "us", Better: "lower", Source: "A", Moves: moves("rtt_p50_over_mean", wlCatnap),
		What: "plain package net 64 B echo on the same loopback, p50; measured beside catnap_echo_64b only"},
	{Name: "net.rtt_p99_us", Unit: "us", Better: "lower", Source: "A", Moves: moves("rtt_p99_over_mean", wlCatnap),
		What: "same, p99"},
	{Name: "catnap.over_net_p50", Unit: "ratio", Better: "lower", Source: "A", Moves: moves("rtt_p50_over_mean", wlCatnap),
		What: "Catnap's rtt_p50_us over net.rtt_p50_us (base: plain net)"},

	// B: spans of the traced pass, as self time per request.
	{Name: "pdpix.push_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlEcho, wlStream),
		What: "self time of Push, all nodes"},
	{Name: "pdpix.pop_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlEcho, wlStream),
		What: "self time of Pop, all nodes"},
	{Name: "pdpix.take_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlEcho, wlFanin),
		What: "self time of the TryTake scans and of the wait loop around them"},
	{Name: "pdpix.step_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlEcho, wlFanin),
		What: "self time of Step less the device spans inside it: catnip+wire+sched work"},
	{Name: "pdpix.block_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlChain, wlEcho),
		What: "time with every node inside Block: sim engine + goroutine handoff (the kernel, on Catnap)"},
	{Name: "pdpix.setup_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlChurn),
		What: "self time of Socket+Connect+Accept+Close"},
	{Name: "pdpix.steps_per_req", Unit: "count", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlFanin),
		What: "Step calls per request; explains pdpix.step_ns"},
	{Name: "pdpix.blocks_per_req", Unit: "count", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlChain),
		What: "Block calls per request; explains pdpix.block_ns"},
	{Name: "dev.rx_burst_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlStream),
		What: "catnip.Device decorator around RxBurst"},
	{Name: "dev.tx_burst_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlStream),
		What: "catnip.Device decorator around TxBurst"},
	{Name: "dev.rx_empty_share", Unit: "ratio", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlFanin),
		What: "empty RxBurst calls over all calls: wasted polling"},
	{Name: "dev.frames_per_burst", Unit: "count", Better: "higher", Source: "B", Moves: moves("wall_ns_per_req", wlStream),
		What: "frames per non-empty RxBurst: batching"},
	{Name: "stor.push_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "demi.StorOS decorator around the storage Push"},
	{Name: "app.client_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "client request code outside any PDPIX call"},
	{Name: "app.server_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "server nodes outside any PDPIX call"},
	{Name: "kv.get_wall_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "mean wall time of a GET, traced pass"},
	{Name: "kv.set_wall_ns", Unit: "ns", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "mean wall time of a SET, traced pass"},
	{Name: "kv.get_rtt_us", Unit: "virt_us", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "mean modelled latency of a GET"},
	{Name: "kv.set_rtt_us", Unit: "virt_us", Better: "lower", Source: "B", Moves: moves("wall_ns_per_req", wlKV),
		What: "mean modelled latency of a SET"},
	{Name: "trace.overhead_ns_per_req", Unit: "ns", Better: "lower", Source: "B",
		What: "traced minus untraced wall_ns_per_req: what tracing costs"},
	{Name: "trace.coverage_share", Unit: "ratio", Better: "higher", Source: "B",
		What: "per-request span self times over the traced wall time per request; the simulated workloads must read 0.95 to 1.05"},

	// C: counters the packages already export, as deltas over the fixed window.
	{Name: "sched.polls_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", wlFanin),
		What: "SchedStats().Polls, every node"},
	{Name: "sched.empty_scans_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", wlFanin),
		What: "SchedStats().EmptyScans, every node"},
	{Name: "sim.events_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", simulated...),
		What: "Engine.EventsRun(); host time per event is wall_ns_per_req over this"},
	{Name: "catnip.tx_frames_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", wlStream),
		What: "catnip.Stats.TxFrames, both endpoints"},
	{Name: "catnip.pure_acks_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", wlStream),
		What: "catnip.Stats.PureAcks, both endpoints"},
	{Name: "catnip.zero_copy_tx_share", Unit: "ratio", Better: "higher", Source: "C", Moves: moves("wall_ns_per_req", wlStream),
		What: "ZeroCopyTx over ZeroCopyTx+CopiedTx"},
	{Name: "catnip.retransmits", Unit: "count", Better: "lower", Source: "C",
		What: "TCPRetransmits; must stay 0 on the lossless fabric, otherwise a failed operation"},
	{Name: "dpdkdev.rx_drops", Unit: "count", Better: "lower", Source: "C",
		What: "RxNoMbuf+RxRingFull; must stay 0, otherwise a failed operation"},
	{Name: "memory.heap_allocs_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("allocs_per_req", wlEcho),
		What: "DMA-heap Stats().Allocs, every heap"},
	{Name: "memory.live_objects_end", Unit: "count", Better: "lower", Source: "C",
		What: "DMA-heap objects live after teardown; must be 0, otherwise a failed operation"},
	{Name: "catnip.heap_bytes_per_conn", Unit: "B", Better: "lower", Source: "C", Moves: moves("live_heap_kb", wlFanin),
		What: "Go HeapAlloc after GC, after minus before opening the 1024 connections, over 1024"},
	{Name: "catnip.connect_wall_ns", Unit: "ns", Better: "lower", Source: "C", Moves: []target{{"setup_s", wlFanin}, {"wall_ns_per_req", wlChurn}},
		What: "wall time per handshake while opening the 1024 connections"},
	{Name: "catmem.stalls_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", wlChain),
		What: "catmem.Stats.Stalls: pushes parked on a full ring"},
	{Name: "cattree.appends_per_req", Unit: "count", Better: "lower", Source: "C", Moves: moves("wall_ns_per_req", wlKV),
		What: "cattree.Stats.Appends; the SET share"},
	{Name: "kv.aof_errors", Unit: "count", Better: "lower", Source: "C",
		What: "kv.ServerStats.AOFErrors; must stay 0, otherwise a failed operation"},

	// D: the untraced pass itself. Absolute wall latencies carry the
	// sandbox's noise at full strength (README), so they are reported here,
	// unbounded, beside the bounded ratios.
	{Name: "rtt_p50_us", Unit: "us", Better: "lower", Source: "D", Moves: moves("rtt_p50_over_mean", wlCatnap),
		What: "client-observed request latency on the wall clock: p50 per chunk of >= 1000 requests, best chunk"},
	{Name: "rtt_p99_us", Unit: "us", Better: "lower", Source: "D", Moves: moves("rtt_p99_over_mean", wlCatnap),
		What: "same, p99"},

	// The modelled ledger, beside the measured one and never mixed with it.
	{Name: "model.rtt_p50_us", Unit: "virt_us", Better: "lower", Source: "C",
		What: "client-observed latency on the libOS's virtual clock, p50; repeats exactly, 0 on Catnap (no model)"},
	{Name: "model.rtt_p99_us", Unit: "virt_us", Better: "lower", Source: "C",
		What: "same, p99; any change is a stated change to the model, never a speed-up"},
}

// exact reports whether a metric is on the modelled ledger, where -compare
// allows no change at all.
func exact(name string) bool { return name == "model.rtt_p50_us" || name == "model.rtt_p99_us" }

func findMetric(list []metric, name string) *metric {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}
