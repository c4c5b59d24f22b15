package bench

import (
	"fmt"

	"demikernel/internal/apps/echo"
	"demikernel/internal/core"
)

// netpipeSizes are the Figure 8 sweep points.
var netpipeSizes = []int{64, 256, 1024, 4096, 16384, 65536, 262144}

// netpipeRounds scales rounds down as messages grow (NetPIPE style).
func netpipeRounds(size int) int {
	switch {
	case size <= 1024:
		return 400
	case size <= 16384:
		return 150
	default:
		return 40
	}
}

// RunNetPipe measures ping-pong bandwidth (2*size bytes per RTT) for one
// system at one message size, NetPIPE's definition.
func RunNetPipe(sys System, size int) (float64, error) {
	opts := DefaultEchoOpts()
	opts.MsgSize = size
	opts.MsgFraming = size // NetPIPE echoes whole messages
	opts.Rounds = netpipeRounds(size)
	opts.Warmup = opts.Rounds / 10
	row, err := RunEcho(sys, opts)
	if err != nil {
		return 0, err
	}
	return Gbps(2*size, row.Avg), nil
}

// Fig8 regenerates Figure 8: NetPIPE bandwidth vs message size.
func Fig8() (*Table, error) {
	type series struct {
		name string
		sys  *System // nil = raw device series
		raw  func(size int) EchoRow
		max  int // largest supported message (0 = unlimited)
	}
	catmintBig := SysCatmint(1 << 20)
	catnipUDP := SysCatnipUDP()
	catnipTCP := SysCatnipTCP()
	sers := []series{
		{name: "testpmd", raw: func(size int) EchoRow { return RunRawDPDKEcho(size, netpipeRounds(size)) }},
		{name: "perftest", raw: func(size int) EchoRow { return RunRawRDMAEcho(size, netpipeRounds(size)) }},
		{name: "Catmint", sys: &catmintBig},
		{name: "Catnip (UDP)", sys: &catnipUDP, max: 65507},
		{name: "Catnip (TCP)", sys: &catnipTCP},
	}
	t := &Table{
		Title:  "Figure 8: NetPIPE bandwidth (Gbps) vs message size",
		Note:   "paper @256KB (Gbps): testpmd 40.3, perftest 37.7, Catmint 31.5 (-17%), Catnip-UDP 33.3, Catnip-TCP 29.7 (-26% vs testpmd); UDP capped at 64KB datagrams",
		Header: []string{"size (B)"},
	}
	for _, s := range sers {
		t.Header = append(t.Header, s.name)
	}
	for _, size := range netpipeSizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, s := range sers {
			if s.max > 0 && size > s.max {
				row = append(row, "-")
				continue
			}
			var bw float64
			if s.raw != nil {
				r := s.raw(size)
				bw = Gbps(2*size, r.Avg)
			} else {
				var err error
				bw, err = RunNetPipe(*s.sys, size)
				if err != nil {
					return nil, fmt.Errorf("%s @%d: %w", s.name, size, err)
				}
			}
			row = append(row, fmt.Sprintf("%.1f", bw))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig9 regenerates Figure 9: latency vs throughput under increasing load.
// Load rises by adding closed-loop client connections from distinct hosts
// (1 server core throughout, as the paper configures).
func Fig9() (*Table, error) {
	systems := []System{
		SysCatnipUDP(),
		SysCatnipTCP(),
		SysCatmint(0),
		SysERPC(),
		SysShenango(),
		SysCaladan(),
	}
	clientCounts := []int{1, 2, 4, 8, 16, 32}
	t := &Table{
		Title:  "Figure 9: latency vs throughput (64B echo)",
		Note:   "paper shape: throughput saturates per-system; Catnip-TCP outperforms Caladan and approaches eRPC; Catmint and Catnip-UDP latency-optimized",
		Header: []string{"system", "clients", "kops/s", "avg lat (µs)", "p99 (µs)"},
	}
	for _, sys := range systems {
		for _, nc := range clientCounts {
			tput, h, err := RunLoad(sys, nc, 300)
			if err != nil {
				return nil, fmt.Errorf("%s x%d: %w", sys.Name, nc, err)
			}
			t.AddRow(sys.Name, fmt.Sprintf("%d", nc),
				fmt.Sprintf("%.0f", tput/1e3), Micros(h.Mean()), Micros(h.P99()))
		}
	}
	return t, nil
}

// runLoad drives nClients closed-loop 64 B echo clients (each on its own
// host) against one server and returns aggregate throughput (ops/s) and
// the latency distribution.
func RunLoad(sys System, nClients, roundsPerClient int) (float64, *Hist, error) {
	tb := NewTestbed(uint64(100+nClients), SwitchEth())
	server := tb.NewStack(sys, "server", benchServerIP)
	var clients []*Stack
	for i := 0; i < nClients; i++ {
		ip := benchClientIP
		ip[2] = byte(1 + i/250)
		ip[3] = byte(2 + i%250)
		clients = append(clients, tb.NewStack(sys, fmt.Sprintf("client%d", i), ip))
	}
	tb.SeedARP()
	addr := core.Addr{IP: benchServerIP, Port: benchPort}
	scfg := echo.ServerConfig{Addr: addr, MaxConns: nClients + 4}
	if sys.Dgram {
		tb.Eng.Spawn(server.Node, func() { echo.ServerUDP(server.OS, scfg) })
	} else {
		tb.Eng.Spawn(server.Node, func() { echo.Server(server.OS, scfg) })
	}
	results := make([]echo.ClientResult, nClients)
	var failure error
	done := 0
	for i, cl := range clients {
		i, cl := i, cl
		tb.Eng.Spawn(cl.Node, func() {
			var err error
			if sys.Dgram {
				results[i], err = echo.ClientUDP(cl.OS, addr, 64, roundsPerClient, roundsPerClient/10, cl.Node)
			} else {
				results[i], err = echo.Client(cl.OS, addr, 64, roundsPerClient, roundsPerClient/10, cl.Node)
			}
			if err != nil && failure == nil {
				failure = err
			}
			done++
			if done == nClients {
				tb.Eng.Stop()
			}
		})
	}
	start := tb.Eng.Now()
	tb.Eng.Run()
	if failure != nil {
		return 0, nil, failure
	}
	elapsed := tb.Eng.Now().Sub(start)
	h := &Hist{}
	ops := 0
	for _, r := range results {
		h.AddAll(r.RTTs)
		ops += len(r.RTTs)
	}
	tput := 0.0
	if elapsed > 0 {
		tput = float64(ops) / elapsed.Seconds()
	}
	return tput, h, nil
}
