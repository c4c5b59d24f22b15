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
	relayIP := wire.IPAddr{10, 10, 0, 1}
	genIP := wire.IPAddr{10, 10, 0, 2}
	srv := tb.NewStack(serverSys, "relay", relayIP)
	gen := tb.NewStack(SysLinux(baseline.EnvNative), "generator", genIP)
	tb.SeedARP()
	relayAddr := core.Addr{IP: relayIP, Port: 3478}
	var stats relay.Stats
	tb.Eng.Spawn(srv.Node, func() { relay.Server(srv.OS, relayAddr, &stats) })

	h := &Hist{}
	var genErr error
	tb.Eng.Spawn(gen.Node, func() {
		defer tb.Eng.Stop()
		l := gen.OS
		caller, _ := l.Socket(core.SockDgram)
		callee, _ := l.Socket(core.SockDgram)
		calleePort := uint16(41000)
		if err := l.Bind(callee, core.Addr{IP: genIP, Port: calleePort}); err != nil {
			genErr = err
			return
		}
		alloc := memory.CopyFrom(l.Heap(), relay.BuildAllocate(1, core.Addr{IP: genIP, Port: calleePort}))
		qt, err := l.PushTo(caller, core.SGA(alloc), relayAddr)
		if err != nil {
			alloc.Free() // failed push leaves ownership with us
			genErr = err
			return
		}
		alloc.Free()
		l.Wait(qt)
		pqt, _ := l.Pop(caller)
		if ev, err := l.Wait(pqt); err != nil || ev.Err != nil {
			genErr = fmt.Errorf("allocate: %v %v", err, ev.Err)
			return
		}
		payload := make([]byte, 160) // typical RTP audio packet
		for i := 0; i < packets; i++ {
			start := gen.Node.Now()
			data := memory.CopyFrom(l.Heap(), relay.BuildData(1, payload))
			qt, err := l.PushTo(caller, core.SGA(data), relayAddr)
			if err != nil {
				data.Free() // failed push leaves ownership with us
				genErr = err
				return
			}
			data.Free()
			l.Wait(qt)
			pqt, _ := l.Pop(callee)
			ev, err := l.Wait(pqt)
			if err != nil || ev.Err != nil {
				genErr = fmt.Errorf("relay recv: %v", err)
				return
			}
			ev.SGA.Free()
			h.Add(gen.Node.Now().Sub(start))
		}
	})
	tb.Eng.Run()
	if genErr != nil {
		return nil, fmt.Errorf("%s: %w", serverSys.Name, genErr)
	}
	if stats.Relayed < uint64(packets) {
		return nil, fmt.Errorf("%s: relayed only %d of %d", serverSys.Name, stats.Relayed, packets)
	}
	return h, nil
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
	for _, sys := range []System{
		SysLinux(baseline.EnvNative),
		SysIOUring(),
		SysCatnipUDP(),
	} {
		name := sys.Name
		if name == "Catnip (UDP)" {
			name = "Catnip"
		}
		h, err := RunRelay(sys, packets)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, Micros(h.Mean()), Micros(h.P99()))
	}
	return t, nil
}
