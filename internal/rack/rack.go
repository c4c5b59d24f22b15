// Package rack grows the single-switch fabric into a rack-scale system: a
// ToR switch model fronting N multi-core sim hosts that all serve one
// replicated KV service behind a rack VIP, scheduled at two layers the way
// RackSched splits the problem — the switch does inter-server placement
// (power-of-k choices over per-server outstanding counts piggybacked on
// reply frames), each host does intra-server dispatch (c-FCFS or DARC over
// its worker pool). The two layers compose: the ToR keeps any one host
// from drowning, DARC keeps a drowning host's short requests alive.
//
// The load signal costs nothing the clients can see: servers append an
// 8-byte tracking trailer past the IPv4 TotalLen of every reply (stacked
// after the dtrace trailer), the ToR reads it, resyncs its table, and
// strips it by truncation. Untraced parsers trim to TotalLen and never
// know it was there.
//
// Everything is deterministic: one engine, seeded rngs forked per
// component, virtual time only — the same seed replays the same placement
// decisions, the same queue depths, and byte-identical telemetry.
package rack

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/dtrace"
	"demikernel/internal/multicore"
	"demikernel/internal/reqsched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// VIP is the rack service address every server host configures; clients
// resolve it to the ToR's virtual MAC, so the switch owns placement.
var VIP = wire.IPAddr{10, 30, 0, 100}

// Config sizes one rack run.
type Config struct {
	// Servers is the number of rack hosts; CoresPerServer the vCPUs (= RSS
	// queues = dispatcher workers) on each.
	Servers, CoresPerServer int
	// Clients is the number of closed-loop client hosts.
	Clients int
	// Placer is the ToR's inter-server policy.
	Placer Placer
	// HostPolicy is the intra-server dispatch policy (c-FCFS or DARC).
	HostPolicy reqsched.Policy
	// Workload shapes the request stream.
	Workload Workload
	// Seed drives every stochastic choice.
	Seed uint64
	// Trace samples requests end-to-end through the ToR hop (every 64th).
	Trace bool
}

// DefaultConfig is a small rack that still shows the scheduling effects.
func DefaultConfig() Config {
	return Config{
		Servers:        8,
		CoresPerServer: 2,
		Clients:        24,
		Placer:         PowerOfK{K: 2},
		HostPolicy:     reqsched.FCFS{},
		Workload:       DefaultWorkload(),
		Seed:           42,
	}
}

// Result is one rack run's measurements.
type Result struct {
	Placer, HostPolicy  string
	ShortLats, LongLats []time.Duration
	Placements          []uint64
	Resyncs             uint64
	MaxLoads            []int // per-server peak dispatcher load
	Elapsed             time.Duration
	// TelemetryText is the canonical text rendering of every registry in
	// the run (ToR, switch, per-server merged stacks) — the byte-identity
	// artifact replay tests compare.
	TelemetryText string
	// Tracer holds sampled end-to-end traces when Config.Trace is set.
	Tracer *dtrace.Tracer
}

// Run builds the rack, drives the closed-loop workload to completion, and
// returns the measurements.
func Run(cfg Config) (*Result, error) {
	if cfg.Servers < 1 || cfg.Clients < 1 {
		return nil, fmt.Errorf("rack: need at least one server and one client")
	}
	eng := sim.NewEngine(cfg.Seed)
	// ToR egress queues are unbounded: closed-loop clients would need the
	// servers' overload replies to keep cycling past hotspot drops.
	sw := simnet.NewSwitch(eng, simnet.SwitchParams{Latency: 450 * time.Nanosecond})
	vipMAC := sw.NextMAC()

	var tracer *dtrace.Tracer
	var clientHop, torHop *dtrace.Hop
	if cfg.Trace {
		tracer = dtrace.New(dtrace.DefaultConfig())
		clientHop = tracer.Hop("client")
		torHop = tracer.Hop("tor")
	}

	// Server hosts: every one configures the VIP, so whichever host the ToR
	// picks parses the request as its own.
	servers := make([]*Server, cfg.Servers)
	serverPorts := make([]*simnet.Port, cfg.Servers)
	for i := range servers {
		grp := multicore.New(eng, sw, fmt.Sprintf("s%02d", i), VIP, multicore.Config{
			Cores: cfg.CoresPerServer,
			Link:  simnet.DefaultLink(),
		})
		servers[i] = newServer(eng, i, grp, cfg.HostPolicy, cfg.Workload)
		serverPorts[i] = grp.Port.NetPort()
		if cfg.Trace {
			for _, c := range grp.Cores {
				c.OS.AttachDTrace(tracer.Hop(fmt.Sprintf("s%02d.c%d", i, c.ID)))
			}
		}
	}
	tor := NewToR(eng, sw, vipMAC, serverPorts, cfg.Placer)
	if cfg.Trace {
		tor.AttachDTrace(torHop)
	}

	// Client hosts: single-core stacks, ARP warmed both ways so no
	// resolution traffic competes with the workload.
	clients := make([]*catnip.LibOS, cfg.Clients)
	for j := range clients {
		ip := wire.IPAddr{10, 30, 1, byte(j + 1)}
		node := eng.NewNode(fmt.Sprintf("client%02d", j))
		port := dpdkdev.Attach(sw, node, simnet.DefaultLink(), 1<<16, 0)
		l := catnip.New(node, port, catnip.DefaultConfig(ip))
		l.SeedARP(VIP, vipMAC)
		for _, s := range servers {
			s.Grp.SeedARP(ip, port.MAC())
		}
		if cfg.Trace {
			l.AttachDTrace(clientHop)
		}
		clients[j] = l
	}

	for _, s := range servers {
		s.Start()
	}

	sizes := cfg.Workload.SizeTable(cfg.Seed ^ 0x5157)
	res := &Result{
		Placer:     cfg.Placer.Name(),
		HostPolicy: cfg.HostPolicy.Name(),
		Tracer:     tracer,
	}
	var firstErr error
	remaining := cfg.Clients
	for j := range clients {
		j := j
		rng := eng.Rand().Fork()
		eng.Spawn(clients[j].Node(), func() {
			short, long, err := runClient(clients[j], j, cfg.Workload, sizes, rng, clientHop)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("client %d: %w", j, err)
			}
			res.ShortLats = append(res.ShortLats, short...)
			res.LongLats = append(res.LongLats, long...)
			remaining--
			if remaining == 0 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if firstErr != nil {
		return nil, firstErr
	}

	res.Placements = tor.Placements()
	res.Resyncs = tor.Resyncs()
	res.Elapsed = eng.Now().Sub(0)
	for _, s := range servers {
		res.MaxLoads = append(res.MaxLoads, s.Disp.MaxLoad())
	}
	sort.Slice(res.ShortLats, func(i, k int) bool { return res.ShortLats[i] < res.ShortLats[k] })
	sort.Slice(res.LongLats, func(i, k int) bool { return res.LongLats[i] < res.LongLats[k] })

	var text strings.Builder
	tor.Telemetry().Snapshot().WriteText(&text)
	sw.Telemetry().Snapshot().WriteText(&text)
	for _, s := range servers {
		s.Grp.MergedTelemetry().WriteText(&text)
	}
	res.TelemetryText = text.String()
	return res, nil
}

// runClient is one closed-loop client: think, send a GET for the next
// table-indexed size, wait for the full value, measure. Latencies are
// returned per class, in issue order.
func runClient(l *catnip.LibOS, j int, w Workload, sizes []int, rng *sim.Rand, hop *dtrace.Hop) (short, long []time.Duration, err error) {
	node := l.Node()
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		return nil, nil, err
	}
	dst := core.Addr{IP: VIP, Port: RackPort}
	for i := 0; i < w.Requests; i++ {
		think := expDuration(rng, w.MeanThink)
		if !node.Park(node.Now().Add(think)) {
			return short, long, nil
		}
		size := sizes[(j*7919+i)%len(sizes)]
		id := uint64(j)<<32 | uint64(i)
		var ctx uint64
		if hop != nil {
			ctx = hop.Tracer().StartRequest()
		}
		req := l.Heap().Alloc(reqLen)
		encodeReq(req.Bytes(), id, size)
		req.SetTraceCtx(ctx)
		t0 := node.Now()
		wqt, err := l.PushTo(qd, core.SGA(req), dst)
		if err != nil {
			req.Free()
			return short, long, err
		}
		req.Free()
		if _, err := l.Wait(wqt); err != nil {
			return short, long, nil
		}
		pqt, err := l.Pop(qd)
		if err != nil {
			return short, long, err
		}
		ev, err := l.Wait(pqt)
		if err != nil {
			return short, long, nil
		}
		if ev.Err != nil {
			return short, long, ev.Err
		}
		gotID, ok := decodeRep(ev.SGA.Flatten())
		if !ok || gotID != id {
			ev.SGA.Free()
			return short, long, fmt.Errorf("request %d: bad reply (id %d, want %d)", i, gotID, id)
		}
		lat := node.Now().Sub(t0)
		if w.ClassFor(size) == reqsched.Long {
			long = append(long, lat)
		} else {
			short = append(short, lat)
		}
		hop.EndRequest(ctx, int64(t0), int64(node.Now()))
		ev.SGA.Free()
	}
	return short, long, nil
}

// expDuration draws an exponential duration with the given mean.
func expDuration(rng *sim.Rand, mean time.Duration) time.Duration {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return time.Duration(-float64(mean) * math.Log(u))
}

// Quantile returns the q-quantile of sorted latencies (0 when empty).
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
