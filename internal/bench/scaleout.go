package bench

// Multi-core scale-out experiment: one server with N cores behind an RSS
// multi-queue DPDK port runs N shared-nothing Catnip stacks that all listen
// on the same (addr, port) SO_REUSEPORT-style; closed-loop clients are
// RSS-steered across the cores. Because cores share nothing — no locks, no
// cross-core handoffs — aggregate throughput should scale near-linearly,
// which is the multi-core story the paper's single-core-per-stack execution
// model (§3.1) implies but does not measure. This experiment measures it.

import (
	"fmt"
	"slices"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/multicore"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// ScaleOutOpts configures the scale-out sweep.
type ScaleOutOpts struct {
	// CoreCounts is the sweep (default 1, 2, 4, 8).
	CoreCounts []int
	// FlowsPerCore is the number of closed-loop clients steered at each
	// core — enough concurrency per core to keep it busy.
	FlowsPerCore int
	// Rounds/Warmup are per-flow echo rounds (warmup excluded).
	Rounds, Warmup int
	// MsgSize is the echo payload.
	MsgSize int
	// KVOps is per-flow KV operations; ValueSize the SET payload.
	KVOps, ValueSize int
	Seed             uint64
}

// DefaultScaleOutOpts sizes the sweep for stable virtual-time numbers.
func DefaultScaleOutOpts() ScaleOutOpts {
	return ScaleOutOpts{
		CoreCounts:   []int{1, 2, 4, 8},
		FlowsPerCore: 4,
		Rounds:       1000,
		Warmup:       100,
		MsgSize:      64,
		KVOps:        600,
		ValueSize:    64,
		Seed:         21,
	}
}

// ScaleOutRow is one core count's measurement.
type ScaleOutRow struct {
	Cores int
	Flows int
	// Aggregate is total ops/s summed over flows; PerCore splits it by the
	// serving core (RSS-steered, so attribution is exact).
	Aggregate float64
	PerCore   []float64
	Avg, P99  time.Duration
	// Elapsed is the virtual wall clock consumed by the whole run.
	Elapsed time.Duration
	// CoreStats snapshots every server core's counters at the end.
	CoreStats []multicore.CoreStats
}

// scaleOutCluster is the common topology: an N-core server group and one
// single-core Catnip client host per flow, ARP warmed both ways.
type scaleOutCluster struct {
	eng     *sim.Engine
	grp     *multicore.Group
	svc     core.Addr
	clients []*Stack
	targets []int // flow -> serving core
}

var scaleServerIP = wire.IPAddr{10, 21, 0, 1}

func newScaleOutCluster(cores int, opts ScaleOutOpts) *scaleOutCluster {
	eng := sim.NewEngine(opts.Seed)
	sw := simnet.NewSwitch(eng, SwitchEth())
	grp := multicore.New(eng, sw, "server", scaleServerIP, multicore.Config{
		Cores: cores,
		Link:  LinkDPDK(),
	})
	c := &scaleOutCluster{
		eng: eng,
		grp: grp,
		svc: core.Addr{IP: scaleServerIP, Port: benchPort},
	}
	flows := cores * opts.FlowsPerCore
	for j := 0; j < flows; j++ {
		ip := wire.IPAddr{10, 21, 1, byte(j + 1)}
		node := eng.NewNode(fmt.Sprintf("client%d", j))
		port := dpdkdev.Attach(sw, node, LinkDPDK(), 1<<16, 0)
		l := catnip.New(node, port, catnip.DefaultConfig(ip))
		grp.SeedARP(ip, port.MAC())
		l.SeedARP(scaleServerIP, grp.MAC())
		c.clients = append(c.clients, &Stack{OS: l, Node: node, IP: ip})
		c.targets = append(c.targets, j%cores)
	}
	return c
}

// localAddr picks flow j's source endpoint so RSS steers it at its target
// core.
func (c *scaleOutCluster) localAddr(j int) core.Addr {
	sport := c.grp.SourcePortFor(c.clients[j].IP, c.svc.Port, c.targets[j], 40000)
	return core.Addr{IP: c.clients[j].IP, Port: sport}
}

// run runs serve on every server core and body for every flow, each on
// its client's node, until the last flow returns.
func (c *scaleOutCluster) run(title string, serve func(*multicore.Core) error, body func(j int) error) error {
	w := &world{title: title, eng: c.eng}
	for _, sc := range c.grp.Cores {
		sc, st := sc, &Stack{OS: sc.OS, Node: sc.Node}
		if sc.ID == 0 {
			st.Port = c.grp.Port // the cores share one RSS port, on core 0's node
		}
		w.stacks = append(w.stacks, st)
		w.servers = append(w.servers, proc{st, func() error { return serve(sc) }})
	}
	for j, st := range c.clients {
		j := j
		w.stacks = append(w.stacks, st)
		w.clients = append(w.clients, proc{st, func() error {
			if err := body(j); err != nil {
				return fmt.Errorf("flow %d: %w", j, err)
			}
			return nil
		}})
	}
	return w.run()
}

// finish folds per-flow throughputs and latencies into a row.
func (c *scaleOutCluster) finish(cores int, tput []float64, rtts [][]time.Duration) ScaleOutRow {
	row := ScaleOutRow{
		Cores:     cores,
		Flows:     len(c.clients),
		PerCore:   make([]float64, cores),
		Elapsed:   c.eng.Now().Sub(0),
		CoreStats: c.grp.Stats(),
	}
	h := &Hist{}
	for j := range c.clients {
		row.Aggregate += tput[j]
		row.PerCore[c.targets[j]] += tput[j]
		h.AddAll(rtts[j])
	}
	row.Avg, row.P99 = h.Mean(), h.P99()
	return row
}

// RunScaleOutEcho measures 64B-style echo across cores server cores.
func RunScaleOutEcho(cores int, opts ScaleOutOpts) (ScaleOutRow, error) {
	c := newScaleOutCluster(cores, opts)
	tput := make([]float64, len(c.clients))
	rtts := make([][]time.Duration, len(c.clients))
	err := c.run(fmt.Sprintf("scale-out echo, %d cores", cores), func(sc *multicore.Core) error {
		return echo.Server(sc.OS, echo.ServerConfig{Addr: c.svc, MaxConns: 2 * opts.FlowsPerCore})
	}, func(j int) error {
		res, err := echo.ClientFrom(c.clients[j].OS, c.localAddr(j), c.svc,
			opts.MsgSize, opts.Rounds, opts.Warmup, c.clients[j].Node)
		if err != nil {
			return err
		}
		if res.Elapsed > 0 {
			tput[j] = float64(opts.Rounds) / res.Elapsed.Seconds()
		}
		rtts[j] = res.RTTs
		return nil
	})
	if err != nil {
		return ScaleOutRow{}, err
	}
	return c.finish(cores, tput, rtts), nil
}

// RunScaleOutKV measures Redis-style GET or SET across cores server cores.
// Each core runs its own store (shared-nothing sharding, as a Redis Cluster
// shard per core); each flow works a private key space on its serving core.
func RunScaleOutKV(cores int, set bool, opts ScaleOutOpts) (ScaleOutRow, error) {
	c := newScaleOutCluster(cores, opts)
	const keysPerFlow = 16
	tput := make([]float64, len(c.clients))
	rtts := make([][]time.Duration, len(c.clients))
	err := c.run(fmt.Sprintf("scale-out kv (set=%v), %d cores", set, cores), func(sc *multicore.Core) error {
		var stats kv.ServerStats
		return kv.Server(sc.OS, kv.ServerConfig{Addr: c.svc, MaxConns: 2 * opts.FlowsPerCore}, &stats)
	}, func(j int) error {
		cl, err := kv.DialFrom(c.clients[j].OS, c.localAddr(j), c.svc)
		if err != nil {
			return err
		}
		defer cl.Close()
		keyFn := func(i int) []byte {
			return []byte(fmt.Sprintf("flow%d:key%d", j, i%keysPerFlow))
		}
		if !set {
			// Populate the working set so GETs hit.
			for i := 0; i < keysPerFlow; i++ {
				if err := cl.Set(keyFn(i), make([]byte, opts.ValueSize)); err != nil {
					return err
				}
			}
		}
		res, err := cl.Benchmark(opts.KVOps, opts.ValueSize, keyFn,
			func(int) bool { return set }, c.clients[j].Node)
		if err != nil {
			return err
		}
		tput[j] = res.OpsPerSec()
		rtts[j] = res.RTTs
		return nil
	})
	if err != nil {
		return ScaleOutRow{}, err
	}
	return c.finish(cores, tput, rtts), nil
}

// kops formats ops/s as thousands.
func kops(v float64) string { return fmt.Sprintf("%.1f", v/1e3) }

// ScaleOut runs the full sweep: echo and KV GET/SET at each core count,
// plus a per-core utilization breakdown of the widest echo run.
func ScaleOut() ([]*Table, error) {
	opts := DefaultScaleOutOpts()

	echoT := &Table{
		Title:  "Scale-out: 64B echo, RSS multi-queue, shared-nothing cores",
		Note:   fmt.Sprintf("%d closed-loop flows per core, RSS-steered; speedup is aggregate vs 1 core", opts.FlowsPerCore),
		Header: []string{"cores", "flows", "agg kops/s", "per-core min/max", "avg RTT (µs)", "p99 (µs)", "speedup"},
	}
	var base float64
	var widest ScaleOutRow
	for _, n := range opts.CoreCounts {
		row, err := RunScaleOutEcho(n, opts)
		if err != nil {
			return nil, fmt.Errorf("scaleout echo %d cores: %w", n, err)
		}
		if n == opts.CoreCounts[0] {
			base = row.Aggregate
		}
		widest = row
		lo, hi := slices.Min(row.PerCore), slices.Max(row.PerCore)
		echoT.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", row.Flows),
			kops(row.Aggregate), kops(lo)+" / "+kops(hi),
			Micros(row.Avg), Micros(row.P99),
			fmt.Sprintf("%.2fx", row.Aggregate/base))
	}

	kvT := &Table{
		Title:  "Scale-out: KV store (Redis-style), one shard per core",
		Note:   fmt.Sprintf("%dB values, %d ops per flow; shared-nothing shards behind one RSS address", opts.ValueSize, opts.KVOps),
		Header: []string{"op", "cores", "agg kops/s", "avg RTT (µs)", "p99 (µs)", "speedup"},
	}
	for _, set := range []bool{false, true} {
		op := "GET"
		if set {
			op = "SET"
		}
		var kvBase float64
		for _, n := range opts.CoreCounts {
			row, err := RunScaleOutKV(n, set, opts)
			if err != nil {
				return nil, fmt.Errorf("scaleout kv %s %d cores: %w", op, n, err)
			}
			if n == opts.CoreCounts[0] {
				kvBase = row.Aggregate
			}
			kvT.AddRow(op, fmt.Sprintf("%d", n), kops(row.Aggregate),
				Micros(row.Avg), Micros(row.P99),
				fmt.Sprintf("%.2fx", row.Aggregate/kvBase))
		}
	}

	utilT := &Table{
		Title:  fmt.Sprintf("Scale-out: per-core breakdown (echo, %d cores)", widest.Cores),
		Note:   "busy = virtual CPU time charged; polls/empty from the core's coroutine scheduler; rx/tx from its queue pair",
		Header: []string{"core", "busy (ms)", "util %", "sched polls", "empty scans", "spawned", "rx pkts", "tx pkts", "ring-full drops"},
	}
	for _, cs := range widest.CoreStats {
		util := 0.0
		if widest.Elapsed > 0 {
			util = 100 * float64(cs.Busy) / float64(widest.Elapsed)
		}
		utilT.AddRow(fmt.Sprintf("%d", cs.Core),
			fmt.Sprintf("%.2f", float64(cs.Busy)/1e6),
			fmt.Sprintf("%.1f", util),
			fmt.Sprintf("%d", cs.Sched.Polls),
			fmt.Sprintf("%d", cs.Sched.EmptyScans),
			fmt.Sprintf("%d", cs.Sched.Spawned),
			fmt.Sprintf("%d", cs.Queue.RxPackets),
			fmt.Sprintf("%d", cs.Queue.TxPackets),
			fmt.Sprintf("%d", cs.Queue.RxRingFull))
	}

	return []*Table{echoT, kvT, utilT}, nil
}
