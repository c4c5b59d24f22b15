package bench

import (
	"fmt"

	"demikernel/internal/apps/relay"
	"demikernel/internal/baseline"
	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/wire"
)

// RunRelay measures end-to-end relayed-packet latency for one relay-server
// stack. The traffic generator is always the Linux kernel path (the paper
// uses a non-kernel-bypass Linux traffic generator), so latency deltas are
// attributable to the relay server alone.
func RunRelay(serverSys System, packets int) (*Hist, error) {
	tb := NewTestbed(9, SwitchEth())
	srv := tb.NewStack(serverSys, "relay", wire.IPAddr{10, 10, 0, 1})
	gen := tb.NewStack(SysLinux(baseline.EnvNative), "generator", wire.IPAddr{10, 10, 0, 2})
	tb.SeedARP()
	relayAddr := core.Addr{IP: srv.IP, Port: 3478}
	var stats relay.Stats
	h := &Hist{}
	w := &world{title: "relay on " + serverSys.Name, eng: tb.Eng, stacks: []*Stack{srv, gen},
		servers: []proc{{srv, func() error { return relay.Server(srv.OS, relayAddr, &stats) }}},
		clients: []proc{{gen, func() error { return generate(gen, relayAddr, packets, h) }}},
	}
	if err := w.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", serverSys.Name, err)
	}
	if stats.Relayed < uint64(packets) {
		return nil, fmt.Errorf("%s: relayed only %d of %d", serverSys.Name, stats.Relayed, packets)
	}
	return h, nil
}

// generate is the relay's traffic generator: it allocates a relay session
// towards its own callee socket, then sends packets through the relay,
// adding to h each one's time until the callee has it.
func generate(gen *Stack, relayAddr core.Addr, packets int, h *Hist) error {
	l := gen.OS
	caller, _ := l.Socket(core.SockDgram)
	callee, _ := l.Socket(core.SockDgram)
	calleeAddr := core.Addr{IP: gen.IP, Port: 41000}
	if err := l.Bind(callee, calleeAddr); err != nil {
		return err
	}
	alloc := memory.CopyFrom(l.Heap(), relay.BuildAllocate(1, calleeAddr))
	qt, err := l.PushTo(caller, core.SGA(alloc), relayAddr)
	alloc.Free() // pushed or refused, the buffer is ours to release
	if err != nil {
		return err
	}
	l.Wait(qt)
	pqt, _ := l.Pop(caller)
	ev, err := l.Wait(pqt)
	if err != nil || ev.Err != nil {
		return fmt.Errorf("allocate: %v %v", err, ev.Err)
	}
	ev.SGA.Free()
	payload := make([]byte, 160) // typical RTP audio packet
	for i := 0; i < packets; i++ {
		start := gen.Node.Now()
		data := memory.CopyFrom(l.Heap(), relay.BuildData(1, payload))
		qt, err := l.PushTo(caller, core.SGA(data), relayAddr)
		data.Free()
		if err != nil {
			return err
		}
		l.Wait(qt)
		pqt, _ := l.Pop(callee)
		ev, err := l.Wait(pqt)
		if err != nil || ev.Err != nil {
			return fmt.Errorf("relay recv: %v", err)
		}
		ev.SGA.Free()
		h.Add(gen.Node.Now().Sub(start))
	}
	return nil
}

// Fig10 regenerates Figure 10: UDP relay average and p99 latency with the
// relay server on Linux, io_uring and Catnip.
func Fig10() (*Table, error) {
	t := &Table{
		Title:  "Figure 10: UDP relay latency (Linux traffic generator)",
		Note:   "paper (µs avg/p99): Linux 24.9/27.6, io_uring 24.4/25.8, Catnip 13.9/14.9 (−11µs avg, −13.7µs p99)",
		Header: []string{"relay server", "avg (µs)", "p99 (µs)"},
	}
	const packets = 3000
	for _, sys := range []System{SysLinux(baseline.EnvNative), SysIOUring(), SysCatnipUDP().named("Catnip")} {
		h, err := RunRelay(sys, packets)
		if err != nil {
			return nil, err
		}
		t.AddRow(sys.Name, Micros(h.Mean()), Micros(h.P99()))
	}
	return t, nil
}
