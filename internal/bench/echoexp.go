package bench

import (
	"fmt"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/baseline"
	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

var (
	benchServerIP = wire.IPAddr{10, 9, 0, 1}
	benchClientIP = wire.IPAddr{10, 9, 0, 2}
	benchPort     = uint16(7000)
)

// EchoOpts configures one echo measurement.
type EchoOpts struct {
	MsgSize int
	// MsgFraming makes the server accumulate full messages before
	// replying (NetPIPE semantics); zero echoes as data arrives.
	MsgFraming     int
	Rounds, Warmup int
	Log            bool // synchronous server-side logging (Figure 7)
	// Clients, when set, runs that many closed-loop clients, each on its
	// own host (Figure 9's load); zero runs Figure 5's one client.
	Clients int
	Switch  simnet.SwitchParams
	Seed    uint64
}

// DefaultEchoOpts is the Figure 5 configuration (64 B messages; the paper
// runs 1M echoes, we run enough for stable virtual-time numbers).
func DefaultEchoOpts() EchoOpts {
	return EchoOpts{MsgSize: 64, Rounds: 2000, Warmup: 200, Switch: SwitchEth(), Seed: 1}
}

// EchoRow is one system's echo result.
type EchoRow struct {
	System   string
	Avg, P99 time.Duration
	// OSTimePerIO is the CPU time all hosts spent per I/O operation (4
	// I/Os per echo round: client send/recv + server recv/send) — the
	// paper's "time spent in Demikernel" split.
	OSTimePerIO time.Duration
	Throughput  float64 // measured echoes per second of virtual time, all clients
}

// RunEcho measures one system's echo RTT.
func RunEcho(sys System, opts EchoOpts) (EchoRow, error) {
	sys.Storage = opts.Log
	tb := NewTestbed(opts.Seed, opts.Switch)
	server := tb.NewStack(sys, "server", benchServerIP)
	w := &world{title: sys.Name, eng: tb.Eng, stacks: []*Stack{server}}
	addr := core.Addr{IP: benchServerIP, Port: benchPort}
	scfg := echo.ServerConfig{Addr: addr, MessageSize: opts.MsgFraming}
	if opts.Log {
		scfg.LogName = "echo.log"
	}
	if opts.Clients == 0 {
		w.stacks = append(w.stacks, tb.NewStack(sys, "client", benchClientIP))
	} else {
		scfg.MaxConns = opts.Clients + 4
		for i := 0; i < opts.Clients; i++ {
			ip := benchClientIP
			ip[2], ip[3] = byte(1+i/250), byte(2+i%250)
			w.stacks = append(w.stacks, tb.NewStack(sys, fmt.Sprintf("client%d", i), ip))
		}
	}
	tb.SeedARP()
	serve, client := echo.Server, echo.Client
	if sys.Dgram {
		serve, client = echo.ServerUDP, echo.ClientUDP
	}
	w.servers = []proc{{server, func() error { return serve(server.OS, scfg) }}}
	results := make([]echo.ClientResult, len(w.stacks)-1)
	for i, cl := range w.stacks[1:] {
		i, cl := i, cl
		w.clients = append(w.clients, proc{cl, func() (err error) {
			results[i], err = client(cl.OS, addr, opts.MsgSize, opts.Rounds, opts.Warmup, cl.Node)
			return err
		}})
	}
	if err := w.run(); err != nil {
		return EchoRow{}, fmt.Errorf("%s: %w", sys.Name, err)
	}
	var busy time.Duration
	for _, st := range w.stacks {
		busy += st.Node.Busy()
	}
	h := &Hist{}
	for _, r := range results {
		h.AddAll(r.RTTs)
	}
	row := EchoRow{System: sys.Name, Avg: h.Mean(), P99: h.P99()}
	row.OSTimePerIO = busy / time.Duration(4*(opts.Rounds+opts.Warmup)*len(results))
	if elapsed := tb.Eng.Now().Sub(0); elapsed > 0 {
		row.Throughput = float64(h.Count()) / elapsed.Seconds()
	}
	return row, nil
}

// RunRawDPDKEcho measures the testpmd floor.
func RunRawDPDKEcho(msgSize, rounds int) (EchoRow, error) {
	tb := NewTestbed(2, SwitchEth())
	fwd, ping := &Stack{Node: tb.Eng.NewNode("testpmd")}, &Stack{Node: tb.Eng.NewNode("pinger")}
	fwd.Port, ping.Port = tb.newDPDK(fwd.Node, LinkDPDK()), tb.newDPDK(ping.Node, LinkDPDK())
	forward := baseline.MessageForwarder(fwd.Port, (msgSize+1499)/1500)
	var rtts []time.Duration
	w := &world{title: "Raw DPDK", eng: tb.Eng, stacks: []*Stack{fwd, ping},
		servers: []proc{{fwd, func() error { forward(); return nil }}},
		clients: []proc{{ping, func() error {
			rtts = baseline.RawDPDKPing(ping.Port, fwd.Port.MAC(), msgSize, rounds)
			return nil
		}}},
	}
	err := w.run()
	return rawRow("Raw DPDK", rtts), err
}

// RunRawRDMAEcho measures the perftest floor.
func RunRawRDMAEcho(msgSize, rounds int) (EchoRow, error) {
	tb := NewTestbed(3, SwitchEth())
	resp, ping := &Stack{Node: tb.Eng.NewNode("responder")}, &Stack{Node: tb.Eng.NewNode("pinger")}
	resp.NIC, ping.NIC = tb.newRDMA(resp.Node, LinkRDMA()), tb.newRDMA(ping.Node, LinkRDMA())
	heapR, heapP := memory.NewHeap(resp.NIC.RegisterMemory), memory.NewHeap(ping.NIC.RegisterMemory)
	l, _ := resp.NIC.ListenCM(1)
	var rtts []time.Duration
	w := &world{title: "Raw RDMA", eng: tb.Eng, stacks: []*Stack{resp, ping},
		servers: []proc{{resp, func() error {
			for {
				if qp, ok := l.Accept(); ok {
					baseline.PerftestResponder(resp.NIC, qp, heapR, msgSize+64, 32)()
					return nil
				}
				if !resp.Node.Park(sim.Infinity) {
					return nil
				}
			}
		}}},
		clients: []proc{{ping, func() error {
			qp, err := ping.NIC.ConnectCM(resp.NIC.MAC(), 1)
			if err == nil {
				rtts = baseline.PerftestPing(ping.NIC, qp, heapP, msgSize, rounds)
			}
			return err
		}}},
	}
	err := w.run()
	return rawRow("Raw RDMA", rtts), err
}

// rawRow is a raw floor's row: no OS, so no OS time.
func rawRow(name string, rtts []time.Duration) EchoRow {
	h := &Hist{}
	h.AddAll(rtts)
	return EchoRow{System: name, Avg: h.Mean(), P99: h.P99()}
}

// echoFigure fills t with one row per system, each its RunEcho under opts:
// name, average and p99 RTT and, when t has a fourth column, OS time per
// I/O. floors adds the raw DPDK and RDMA rows (Figure 5).
func echoFigure(t *Table, opts EchoOpts, floors bool, systems ...System) (*Table, error) {
	var rows []EchoRow
	for _, sys := range systems {
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if floors {
		for _, raw := range []func(int, int) (EchoRow, error){RunRawDPDKEcho, RunRawRDMAEcho} {
			row, err := raw(opts.MsgSize, opts.Rounds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	for _, r := range rows {
		cells := []string{r.System, Micros(r.Avg), Micros(r.P99), fmt.Sprint(r.OSTimePerIO.Nanoseconds())}
		t.AddRow(cells[:len(t.Header)]...)
	}
	return t, nil
}

// Fig5 regenerates Figure 5: 64 B echo RTTs across every system.
func Fig5() (*Table, error) {
	return echoFigure(&Table{
		Title:  "Figure 5: echo latencies (64B)",
		Note:   "paper (µs): Linux 30.4  Catnap 16.9  Catmint 5.3  Catnip-UDP 6.0  Catnip-TCP 7.1  eRPC 5.1  Shenango 10.2  Caladan 5.4  rawDPDK 4.8  rawRDMA 3.4",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)", "OS time/I/O (ns)"},
	}, DefaultEchoOpts(), true,
		SysLinux(baseline.EnvNative), SysCatnap(baseline.EnvNative), SysCatmint(0), SysCatnipUDP(),
		SysCatnipTCP(), SysERPC(), SysShenango(), SysCaladan())
}

// Fig6a regenerates Figure 6a: echo on the Windows cluster (WSL profile,
// CX-4 InfiniBand, SX6036 switch).
func Fig6a() (*Table, error) {
	opts := DefaultEchoOpts()
	opts.Switch = SwitchIB()
	return echoFigure(&Table{
		Title:  "Figure 6a: echo latencies on Windows (64B)",
		Note:   "paper shape: WSL-POSIX >> Catnap(WSL) >> Catpaw (RDMA, ~27x faster than WSL)",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)"},
	}, opts, false, SysLinux(baseline.EnvWSL).named("WSL POSIX"), SysCatnap(baseline.EnvWSL), SysCatpaw())
}

// Fig6b regenerates Figure 6b: echo in an Azure VM (virtualized DPDK via
// the SmartNIC, bare-metal InfiniBand for RDMA).
func Fig6b() (*Table, error) {
	return echoFigure(&Table{
		Title:  "Figure 6b: echo latencies in an Azure VM (64B)",
		Note:   "paper shape: Linux-VM worst; Catnip ~5x better than VM kernel; Catmint native (bare-metal IB)",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)"},
	}, DefaultEchoOpts(), false,
		SysLinux(baseline.EnvAzureVM), SysCatnap(baseline.EnvAzureVM), SysCatnipVM(),
		SysCatmint(0)) // Catmint: the bare-metal InfiniBand path
}

// Fig7 regenerates Figure 7: echo with synchronous logging to disk.
func Fig7() (*Table, error) {
	opts := DefaultEchoOpts()
	opts.Log = true
	opts.Rounds = 1000
	return echoFigure(&Table{
		Title:  "Figure 7: echo latencies with synchronous logging (64B)",
		Note:   "paper shape: Demikernel gives lower latency to remote disk than Linux to remote memory (~30µs)",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)"},
	}, opts, false,
		SysLinux(baseline.EnvNative), SysCatnap(baseline.EnvNative), catmintCattree(),
		catnipCattreeUDP(), catnipCattreeTCP())
}

func catmintCattree() System {
	s := SysCatmint(0)
	s.Name = "Catmint x Cattree"
	s.Storage = true
	return s
}

func catnipCattreeTCP() System {
	s := SysCatnipTCP()
	s.Name = "Catnip (TCP) x Cattree"
	s.Storage = true
	return s
}

func catnipCattreeUDP() System {
	s := SysCatnipUDP()
	s.Name = "Catnip (UDP) x Cattree"
	s.Storage = true
	return s
}
