package bench

import "fmt"

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
		raw  func(size, rounds int) (EchoRow, error)
		max  int // largest supported message (0 = unlimited)
	}
	catmintBig := SysCatmint(1 << 20)
	catnipUDP := SysCatnipUDP()
	catnipTCP := SysCatnipTCP()
	sers := []series{
		{name: "testpmd", raw: RunRawDPDKEcho},
		{name: "perftest", raw: RunRawRDMAEcho},
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
			var err error
			if s.raw != nil {
				var r EchoRow
				r, err = s.raw(size, netpipeRounds(size))
				bw = Gbps(2*size, r.Avg)
			} else {
				bw, err = RunNetPipe(*s.sys, size)
			}
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", s.name, size, err)
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
	systems := []System{SysCatnipUDP(), SysCatnipTCP(), SysCatmint(0), SysERPC(), SysShenango(), SysCaladan()}
	clientCounts := []int{1, 2, 4, 8, 16, 32}
	t := &Table{
		Title:  "Figure 9: latency vs throughput (64B echo)",
		Note:   "paper shape: throughput saturates per-system; Catnip-TCP outperforms Caladan and approaches eRPC; Catmint and Catnip-UDP latency-optimized",
		Header: []string{"system", "clients", "kops/s", "avg lat (µs)", "p99 (µs)"},
	}
	for _, sys := range systems {
		for _, nc := range clientCounts {
			opts := DefaultEchoOpts()
			opts.Rounds, opts.Warmup, opts.Clients, opts.Seed = 300, 30, nc, uint64(100+nc)
			row, err := RunEcho(sys, opts)
			if err != nil {
				return nil, fmt.Errorf("%s x%d: %w", sys.Name, nc, err)
			}
			t.AddRow(sys.Name, fmt.Sprintf("%d", nc),
				fmt.Sprintf("%.0f", row.Throughput/1e3), Micros(row.Avg), Micros(row.P99))
		}
	}
	return t, nil
}
