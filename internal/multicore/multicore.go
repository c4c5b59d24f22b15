// Package multicore assembles a shared-nothing multi-core Demikernel node:
// one RSS multi-queue DPDK port, one virtual CPU per queue pair, and one
// complete Catnip stack (with its own coroutine scheduler, ARP cache,
// socket tables and heap) per core. Nothing on the datapath is shared
// between cores — the paper's single-threaded-per-core execution model
// (§3.1) scaled out the way microsecond-scale servers actually scale:
// hardware flow steering instead of software locking.
//
// Request steering is RSS (dpdkdev/rss.go): the NIC hashes each arriving
// frame's 5-tuple, so every frame of a flow lands on the queue — and
// therefore the core — that owns its connection. Listening works
// SO_REUSEPORT-style: every core binds the same (addr, port) in its own
// stack and accepts exactly the connections RSS steers to its queue, so
// one service address fans out across cores with no dispatcher core and
// no cross-core handoff (contrast with Shenango's IOKernel hop, which
// Figure 5 charges ~1.2 µs per packet).
//
// Determinism is preserved: cores are ordinary sim.Nodes under the
// engine's one-runner-at-a-time baton, RSS is a pure hash, and equal-clock
// cores take the baton round-robin — the same seed replays the same
// multi-core execution byte for byte.
package multicore

import (
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
	"demikernel/internal/wire"
)

// Config sizes a multi-core node.
type Config struct {
	// Cores is the number of virtual CPUs = rx/tx queue pairs (0 means 1).
	Cores int
	// Link is the NIC attachment; zero value means simnet.DefaultLink.
	Link simnet.LinkParams
}

// poolSize bounds the port's shared mbuf pool; each queue's rx ring is
// unbounded.
const poolSize = 1 << 16

// A Core is one virtual CPU with its private stack and queue pair.
type Core struct {
	ID    int
	Node  *sim.Node
	Queue *dpdkdev.Queue
	OS    *catnip.LibOS
}

// CoreStats is one core's activity snapshot after a run.
type CoreStats struct {
	Core  int
	Busy  time.Duration
	Sched sched.Stats
	Stack catnip.Stats
	Queue dpdkdev.QueueStats
}

// Group is a multi-core Demikernel node on the fabric.
type Group struct {
	Name  string
	IP    wire.IPAddr
	Host  *sim.Host
	Port  *dpdkdev.Port
	Cores []*Core
}

// New attaches a multi-core node to the switch: an N-queue RSS port on an
// N-core host, one Catnip stack per core over its own queue pair.
func New(eng *sim.Engine, sw *simnet.Switch, name string, ip wire.IPAddr, cfg Config) *Group {
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	link := cfg.Link
	if link == (simnet.LinkParams{}) {
		link = simnet.DefaultLink()
	}
	host := eng.NewHost(name, cores)
	port := dpdkdev.AttachQueues(sw, host.Core(0), link, dpdkdev.Config{
		PoolSize: poolSize,
		Queues:   cores,
	})
	g := &Group{Name: name, IP: ip, Host: host, Port: port}
	for i := 0; i < cores; i++ {
		node := host.Core(i)
		q := port.Queue(i)
		q.SetOwner(node)
		os := catnip.NewOnDevice(node, q, catnip.DefaultConfig(ip))
		// Re-label the core's qtoken spans with its index (the stack
		// self-instruments as core 0).
		os.Tokens().Instrument(node, i)
		g.Cores = append(g.Cores, &Core{
			ID:    i,
			Node:  node,
			Queue: q,
			OS:    os,
		})
	}
	return g
}

// CoreTelemetry snapshots every core's stack registry, in core order — the
// per-core shards of the group's metrics.
func (g *Group) CoreTelemetry() []*telemetry.Snapshot {
	out := make([]*telemetry.Snapshot, 0, len(g.Cores))
	for _, c := range g.Cores {
		out = append(out, c.OS.Telemetry().Snapshot())
	}
	return out
}

// MergedTelemetry merges the per-core shards into one group-wide view:
// counters and gauges sum, histograms merge bucket-wise (so group
// quantiles are exact with respect to the shard histograms).
func (g *Group) MergedTelemetry() *telemetry.Snapshot {
	return telemetry.Merge(g.Name+"/merged", g.CoreTelemetry()...)
}

// MAC returns the node's (single, shared) Ethernet address.
func (g *Group) MAC() simnet.MAC { return g.Port.MAC() }

// NumCores returns the number of cores.
func (g *Group) NumCores() int { return len(g.Cores) }

// SeedARP warms every core's ARP cache with one endpoint. Only core 0
// receives broadcast ARP (RSS sends non-IP frames to queue 0), so
// benchmark steady state seeds all cores, as real deployments pre-resolve.
func (g *Group) SeedARP(ip wire.IPAddr, mac simnet.MAC) {
	for _, c := range g.Cores {
		c.OS.SeedARP(ip, mac)
	}
}

// AttachLoadProbe installs the same load probe on every core's stack, so
// each reply frame from any core carries the node's current outstanding
// count — the piggyback signal the rack ToR reads (the probe typically
// closes over a host-wide reqsched.Dispatcher).
func (g *Group) AttachLoadProbe(p catnip.LoadProbe) {
	for _, c := range g.Cores {
		c.OS.SetLoadProbe(p)
	}
}

// Spawn starts fn once per core, each on its own virtual CPU — the
// SO_REUSEPORT-style sharded server: fn typically binds the same
// (addr, port) on every core's stack and serves the connections RSS
// steers its way.
func (g *Group) Spawn(fn func(c *Core)) {
	for _, c := range g.Cores {
		c := c
		g.Host.Core(c.ID).Engine().Spawn(c.Node, func() { fn(c) })
	}
}

// CoreFor returns the core that will own a flow from remote
// (srcIP:srcPort) to this node's svcPort — the RSS mapping, exposed so
// harnesses can place load deterministically.
func (g *Group) CoreFor(srcIP wire.IPAddr, srcPort, svcPort uint16) int {
	return dpdkdev.QueueForFlow(len(g.Cores), srcIP, g.IP, srcPort, svcPort)
}

// SourcePortFor searches from base for a client source port whose flow
// (srcIP:port -> g.IP:svcPort) RSS-steers to the given core. Load
// generators bind it before connecting to pin each flow's serving core.
func (g *Group) SourcePortFor(srcIP wire.IPAddr, svcPort uint16, core int, base uint16) uint16 {
	for p := base; ; p++ {
		if g.CoreFor(srcIP, p, svcPort) == core {
			return p
		}
		if p == base-1 { // wrapped the whole port space
			panic("multicore: no source port steers to core")
		}
	}
}

// Stats snapshots every core's counters.
func (g *Group) Stats() []CoreStats {
	out := make([]CoreStats, 0, len(g.Cores))
	for _, c := range g.Cores {
		out = append(out, CoreStats{
			Core:  c.ID,
			Busy:  c.Node.Busy(),
			Sched: c.OS.SchedStats(),
			Stack: c.OS.Stats(),
			Queue: c.Queue.Stats(),
		})
	}
	return out
}
