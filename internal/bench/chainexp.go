package bench

import (
	"fmt"

	"demikernel/internal/apps/chain"
	"demikernel/internal/catloop"
	"demikernel/internal/catmem"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dtrace"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
	"demikernel/internal/wire"
)

// chainResult is one transport's measurement of the three-stage chain.
type chainResult struct {
	transport string
	rtt       *Hist
	// per-stage CPU ns per request (node busy time / requests served).
	relayNs, cacheNs, kvNs float64
	hitRate                float64
	// hists maps hop name to that stage's qtoken latency histogram, for
	// cross-checking traced spans against telemetry (traced runs only).
	hists map[string]*telemetry.Histogram
}

const (
	chainKeys    = 16
	chainValSize = 64
	chainWarmup  = 64
)

// chainLibOS is what the chain needs of a stage's libOS: the PDPIX
// surface, its node for CPU accounting, its registry and its trace hop.
type chainLibOS interface {
	demi.LibOS
	Node() *sim.Node
	Telemetry() *telemetry.Registry
	AttachDTrace(*dtrace.Hop)
}

// runChain drives the relay -> cache -> kv chain once over the given
// transport and returns its measurement. When tr is non-nil, every stage's
// libOS records per-hop spans into it and the stages stamp app spans, so
// sampled requests stitch into end-to-end waterfalls.
func runChain(transport string, rounds int, tr *dtrace.Tracer) (chainResult, error) {
	eng := sim.NewEngine(77)
	// stage builds stage i's libOS on a new node; ip is its address (a
	// catmem queue has none).
	var stage func(i int, name string) chainLibOS
	ip := func(i int) wire.IPAddr { return wire.IPAddr{} }
	switch transport {
	case "catmem":
		region := catmem.NewRegion(eng)
		stage = func(i int, name string) chainLibOS { return region.New(eng.NewNode(name)) }
	case "catloop":
		hub := catloop.NewHub(eng)
		ip = func(i int) wire.IPAddr { return wire.IPAddr{127, 0, 0, byte(i + 1)} }
		stage = func(i int, name string) chainLibOS { return catloop.New(hub, eng.NewNode(name), ip(i)) }
	default:
		return chainResult{}, fmt.Errorf("chain: unknown transport %q", transport)
	}
	handoff := transport == "catmem" // shared memory hands buffers over
	w := &world{title: "chain over " + transport, eng: eng, untilIdle: true}
	var libs [4]chainLibOS
	var traces [4]chain.Trace
	for i, name := range []string{"kv", "cache", "relay", "client"} {
		libs[i] = stage(i, name)
		hop := tr.Hop(name)
		libs[i].AttachDTrace(hop)
		traces[i] = chain.Trace{Hop: hop, Clock: libs[i].Node()}
		w.stacks = append(w.stacks, &Stack{OS: libs[i], Node: libs[i].Node()})
	}
	kv, cache, relay, cli := libs[0], libs[1], libs[2], libs[3]
	relayAddr, cacheAddr, kvAddr := core.Addr{IP: ip(2), Port: 1}, core.Addr{IP: ip(1), Port: 2}, core.Addr{IP: ip(0), Port: 3}
	var kvSt, cacheSt, relaySt chain.Stats
	var res chain.Result
	w.servers = []proc{
		{w.stacks[0], func() error { return chain.KV(kv, kvAddr, handoff, chainKeys, chainValSize, &kvSt, traces[0]) }},
		{w.stacks[1], func() error { return chain.Cache(cache, cacheAddr, kvAddr, handoff, &cacheSt, traces[1]) }},
		{w.stacks[2], func() error { return chain.Relay(relay, relayAddr, cacheAddr, handoff, &relaySt, traces[2]) }},
	}
	w.clients = []proc{{w.stacks[3], func() (err error) {
		res, err = chain.Client(cli, relayAddr, handoff, rounds, chainWarmup, chainKeys, chainValSize, cli.Node(), traces[3])
		return err
	}}}
	if err := w.run(); err != nil {
		return chainResult{}, err
	}
	// Every stage has closed, so every heap must have drained.
	for _, st := range w.stacks {
		if n := st.OS.Heap().LiveObjects(); n != 0 {
			return chainResult{}, fmt.Errorf("chain leaked %d buffers on %s", n, st.Node.Name())
		}
	}
	total := float64(rounds + chainWarmup)
	h := &Hist{}
	h.AddAll(res.RTTs)
	r := chainResult{
		transport: transport,
		rtt:       h,
		relayNs:   float64(relay.Node().Busy()) / total,
		cacheNs:   float64(cache.Node().Busy()) / total,
		kvNs:      float64(kv.Node().Busy()) / float64(kvSt.Requests),
		hitRate:   100 * float64(cacheSt.Hits) / float64(cacheSt.Requests),
	}
	if tr != nil {
		r.hists = make(map[string]*telemetry.Histogram)
		for _, l := range libs {
			r.hists[l.Node().Name()] = l.Telemetry().Histogram("core.qtoken_latency_ns")
		}
	}
	return r, nil
}

// Chain benchmarks the three-stage microservice chain over the two
// intra-host transports: shared-memory queues (catmem, zero-copy handoff)
// vs loopback TCP (catloop, full protocol stacks). Fig-5 style: per-hop
// CPU cost is the story, end-to-end RTT the corroboration.
func Chain() ([]*Table, error) {
	t := &Table{
		Title: "Service chain: client -> relay -> cache -> KV, intra-host transports",
		Note: "catmem hands buffers through shared memory (zero-copy); " +
			"catloop runs full TCP stacks over an in-process wire",
		Header: []string{"transport", "rtt avg (µs)", "rtt p99 (µs)",
			"relay ns/req", "cache ns/req", "kv ns/req", "cache hit %"},
	}
	const rounds = 2000
	for _, transport := range []string{"catmem", "catloop"} {
		r, err := runChain(transport, rounds, nil)
		if err != nil {
			return nil, fmt.Errorf("chain %s: %w", transport, err)
		}
		t.AddRow(r.transport,
			Micros(r.rtt.Mean()), Micros(r.rtt.P99()),
			fmt.Sprintf("%.0f", r.relayNs),
			fmt.Sprintf("%.0f", r.cacheNs),
			fmt.Sprintf("%.0f", r.kvNs),
			fmt.Sprintf("%.0f", r.hitRate))
	}
	return []*Table{t}, nil
}
