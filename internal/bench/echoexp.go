package bench

import (
	"fmt"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/baseline"
	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
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
	Switch         simnet.SwitchParams
	Seed           uint64
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
	// OSTimePerIO is the CPU time both hosts spent per I/O operation
	// (4 I/Os per echo round: client send/recv + server recv/send) — the
	// paper's "time spent in Demikernel" split.
	OSTimePerIO time.Duration
	Throughput  float64 // echoes per second during measurement
}

// RunEcho measures one system's echo RTT.
func RunEcho(sys System, opts EchoOpts) (EchoRow, error) {
	if sys.Storage != opts.Log {
		sys.Storage = opts.Log
	}
	tb := NewTestbed(opts.Seed, opts.Switch)
	server := tb.NewStack(sys, "server", benchServerIP)
	client := tb.NewStack(sys, "client", benchClientIP)
	var serverFR, clientFR *telemetry.FlightRecorder
	if telemetrySink != nil {
		serverFR = instrumentStack(server, 0)
		clientFR = instrumentStack(client, 1)
	}
	tb.SeedARP()
	addr := core.Addr{IP: benchServerIP, Port: benchPort}
	scfg := echo.ServerConfig{Addr: addr, MessageSize: opts.MsgFraming}
	if opts.Log {
		scfg.LogName = "echo.log"
	}
	if sys.Dgram {
		tb.Eng.Spawn(server.Node, func() { echo.ServerUDP(server.OS, scfg) })
	} else {
		tb.Eng.Spawn(server.Node, func() { echo.Server(server.OS, scfg) })
	}
	var res echo.ClientResult
	var cerr error
	tb.Eng.Spawn(client.Node, func() {
		if sys.Dgram {
			res, cerr = echo.ClientUDP(client.OS, addr, opts.MsgSize, opts.Rounds, opts.Warmup, client.Node)
		} else {
			res, cerr = echo.Client(client.OS, addr, opts.MsgSize, opts.Rounds, opts.Warmup, client.Node)
		}
		tb.Eng.Stop()
	})
	tb.Eng.Run()
	if cerr != nil {
		return EchoRow{}, fmt.Errorf("%s: %w", sys.Name, cerr)
	}
	if telemetrySink != nil {
		dumpStack(sys.Name+"/server", server, serverFR)
		dumpStack(sys.Name+"/client", client, clientFR)
	}
	h := &Hist{}
	h.AddAll(res.RTTs)
	totalRounds := opts.Rounds + opts.Warmup
	busy := server.Node.Busy() + client.Node.Busy()
	row := EchoRow{
		System:      sys.Name,
		Avg:         h.Mean(),
		P99:         h.P99(),
		OSTimePerIO: busy / time.Duration(4*totalRounds),
	}
	if h.Mean() > 0 {
		row.Throughput = 1 / h.Mean().Seconds()
	}
	return row, nil
}

// RunRawDPDKEcho measures the testpmd floor.
func RunRawDPDKEcho(msgSize, rounds int) EchoRow {
	tb := NewTestbed(2, SwitchEth())
	nf, np := tb.Eng.NewNode("testpmd"), tb.Eng.NewNode("pinger")
	pf := tb.newDPDK(nf, LinkDPDK())
	pp := tb.newDPDK(np, LinkDPDK())
	nFrames := (msgSize + 1499) / 1500
	tb.Eng.Spawn(nf, baseline.MessageForwarder(pf, nFrames))
	var rtts []time.Duration
	tb.Eng.Spawn(np, func() {
		rtts = baseline.RawDPDKPing(pp, pf.MAC(), msgSize, rounds)
		tb.Eng.Stop()
	})
	tb.Eng.Run()
	h := &Hist{}
	h.AddAll(rtts)
	return EchoRow{System: "Raw DPDK", Avg: h.Mean(), P99: h.P99()}
}

// RunRawRDMAEcho measures the perftest floor.
func RunRawRDMAEcho(msgSize, rounds int) EchoRow {
	tb := NewTestbed(3, SwitchEth())
	nr, np := tb.Eng.NewNode("responder"), tb.Eng.NewNode("pinger")
	nicR := tb.newRDMA(nr, LinkRDMA())
	nicP := tb.newRDMA(np, LinkRDMA())
	heapR := memory.NewHeap(nicR.RegisterMemory)
	heapP := memory.NewHeap(nicP.RegisterMemory)
	l, _ := nicR.ListenCM(1)
	tb.Eng.Spawn(nr, func() {
		var qp *rdmadev.QP
		for {
			var ok bool
			if qp, ok = l.Accept(); ok {
				break
			}
			if !nr.Park(sim.Infinity) {
				return
			}
		}
		baseline.PerftestResponder(nicR, qp, heapR, msgSize+64, 32)()
	})
	var rtts []time.Duration
	tb.Eng.Spawn(np, func() {
		qp, err := nicP.ConnectCM(nicR.MAC(), 1)
		if err != nil {
			return
		}
		rtts = baseline.PerftestPing(nicP, qp, heapP, msgSize, rounds)
		tb.Eng.Stop()
	})
	tb.Eng.Run()
	h := &Hist{}
	h.AddAll(rtts)
	return EchoRow{System: "Raw RDMA", Avg: h.Mean(), P99: h.P99()}
}

// Fig5 regenerates Figure 5: 64 B echo RTTs across every system.
func Fig5() (*Table, error) {
	opts := DefaultEchoOpts()
	systems := []System{
		SysLinux(baseline.EnvNative),
		SysCatnap(baseline.EnvNative),
		SysCatmint(0),
		SysCatnipUDP(),
		SysCatnipTCP(),
		SysERPC(),
		SysShenango(),
		SysCaladan(),
	}
	t := &Table{
		Title:  "Figure 5: echo latencies (64B)",
		Note:   "paper (µs): Linux 30.4  Catnap 16.9  Catmint 5.3  Catnip-UDP 6.0  Catnip-TCP 7.1  eRPC 5.1  Shenango 10.2  Caladan 5.4  rawDPDK 4.8  rawRDMA 3.4",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)", "OS time/I/O (ns)"},
	}
	for _, sys := range systems {
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.System, Micros(row.Avg), Micros(row.P99),
			fmt.Sprintf("%d", row.OSTimePerIO.Nanoseconds()))
	}
	raw := RunRawDPDKEcho(opts.MsgSize, opts.Rounds)
	t.AddRow(raw.System, Micros(raw.Avg), Micros(raw.P99), "0")
	raw = RunRawRDMAEcho(opts.MsgSize, opts.Rounds)
	t.AddRow(raw.System, Micros(raw.Avg), Micros(raw.P99), "0")
	return t, nil
}

// Fig6a regenerates Figure 6a: echo on the Windows cluster (WSL profile,
// CX-4 InfiniBand, SX6036 switch).
func Fig6a() (*Table, error) {
	opts := DefaultEchoOpts()
	opts.Switch = SwitchIB()
	t := &Table{
		Title:  "Figure 6a: echo latencies on Windows (64B)",
		Note:   "paper shape: WSL-POSIX >> Catnap(WSL) >> Catpaw (RDMA, ~27x faster than WSL)",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)"},
	}
	for _, sys := range []System{
		SysLinux(baseline.EnvWSL),
		SysCatnap(baseline.EnvWSL),
		SysCatpaw(),
	} {
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		name := row.System
		if name == "Linux" {
			name = "WSL POSIX"
		}
		t.AddRow(name, Micros(row.Avg), Micros(row.P99))
	}
	return t, nil
}

// Fig6b regenerates Figure 6b: echo in an Azure VM (virtualized DPDK via
// the SmartNIC, bare-metal InfiniBand for RDMA).
func Fig6b() (*Table, error) {
	opts := DefaultEchoOpts()
	t := &Table{
		Title:  "Figure 6b: echo latencies in an Azure VM (64B)",
		Note:   "paper shape: Linux-VM worst; Catnip ~5x better than VM kernel; Catmint native (bare-metal IB)",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)"},
	}
	for _, sys := range []System{
		SysLinux(baseline.EnvAzureVM),
		SysCatnap(baseline.EnvAzureVM),
		SysCatnipVM(),
		SysCatmint(0), // bare-metal InfiniBand path
	} {
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.System, Micros(row.Avg), Micros(row.P99))
	}
	return t, nil
}

// Fig7 regenerates Figure 7: echo with synchronous logging to disk.
func Fig7() (*Table, error) {
	opts := DefaultEchoOpts()
	opts.Log = true
	opts.Rounds = 1000
	t := &Table{
		Title:  "Figure 7: echo latencies with synchronous logging (64B)",
		Note:   "paper shape: Demikernel gives lower latency to remote disk than Linux to remote memory (~30µs)",
		Header: []string{"system", "avg RTT (µs)", "p99 (µs)"},
	}
	systems := []System{
		SysLinux(baseline.EnvNative),
		SysCatnap(baseline.EnvNative),
		catmintCattree(),
		catnipCattreeUDP(),
		catnipCattreeTCP(),
	}
	for _, sys := range systems {
		sys.Storage = true
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.System, Micros(row.Avg), Micros(row.P99))
	}
	return t, nil
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
