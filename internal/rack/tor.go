package rack

import (
	"fmt"

	"demikernel/internal/dtrace"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
	"demikernel/internal/wire"
)

// ToR is the rack's top-of-rack switch model: a simnet.ForwardHook that
// implements the inter-server half of RackSched-style two-layer scheduling.
// Every request frame is addressed to the rack VIP's virtual MAC; the hook
// places it on a server under the configured Placer and bumps that server's
// tracked outstanding count. Every reply frame carries a load trailer the
// server's stack appended past the IP packet; the hook reads it, resyncs
// the tracked count to the server's ground truth (placement estimates
// drift: the +1 per request never sees completions), strips the trailer by
// truncation — the trace trailer, which sits before it, survives — and lets
// normal MAC forwarding deliver the frame.
//
// The ToR never rewrites headers: all rack servers share the VIP, so a
// steered request parses as "mine" on whichever server receives it, and
// replies already carry the client's address. Placement is therefore one
// table lookup plus a trailer truncation — switch-dataplane-sized work.
type ToR struct {
	eng     *sim.Engine
	vipMAC  simnet.MAC
	placer  Placer
	rng     *sim.Rand
	servers []*simnet.Port
	tracked []uint32

	reg        *telemetry.Registry
	placements []*telemetry.Counter
	resyncs    *telemetry.Counter
	steered    *telemetry.Counter
	hop        *dtrace.Hop
}

// NewToR installs a ToR scheduler on the switch. vipMAC is the virtual MAC
// clients resolve the rack VIP to; servers[i] is server i's fabric port
// (index must match the server id its load probe reports).
func NewToR(eng *sim.Engine, sw *simnet.Switch, vipMAC simnet.MAC, servers []*simnet.Port, placer Placer) *ToR {
	t := &ToR{
		eng:     eng,
		vipMAC:  vipMAC,
		placer:  placer,
		rng:     eng.Rand().Fork(),
		servers: servers,
		tracked: make([]uint32, len(servers)),
		reg:     telemetry.NewRegistry("rack/tor"),
	}
	t.steered = t.reg.Counter("tor.requests_steered")
	t.resyncs = t.reg.Counter("tor.load_resyncs")
	for i := range servers {
		i := i
		t.placements = append(t.placements, t.reg.Counter(fmt.Sprintf("tor.s%02d.placements", i)))
		t.reg.Sample(fmt.Sprintf("tor.s%02d.tracked_load", i), func() int64 { return int64(t.tracked[i]) })
	}
	sw.SetHook(t)
	return t
}

// AttachDTrace records a KSwitch hop for every traced frame the ToR
// forwards, carrying the placement decision for requests.
func (t *ToR) AttachDTrace(h *dtrace.Hop) { t.hop = h }

// Telemetry returns the ToR registry: per-server placement counters and
// tracked-load gauges, plus steering/resync totals.
func (t *ToR) Telemetry() *telemetry.Registry { return t.reg }

// Placements returns the per-server placement counts.
func (t *ToR) Placements() []uint64 {
	out := make([]uint64, len(t.placements))
	for i, c := range t.placements {
		out[i] = c.Value()
	}
	return out
}

// Resyncs returns how many reply trailers resynced the tracked state.
func (t *ToR) Resyncs() uint64 { return t.resyncs.Value() }

// Forward implements simnet.ForwardHook.
func (t *ToR) Forward(f simnet.Frame, from *simnet.Port) (simnet.Frame, *simnet.Port, bool) {
	if len(t.servers) > 0 && f.Dst() == t.vipMAC {
		s := t.placer.Pick(t.tracked, t.rng)
		t.tracked[s]++
		t.placements[s].Inc()
		t.steered.Inc()
		if t.hop != nil {
			if ctx := traceCtx(f.Data); ctx != 0 {
				t.hop.Switch(ctx, int64(t.eng.Now()), int32(s))
			}
		}
		return f, t.servers[s], true
	}
	if server, load, ok := wire.ParseLoadTrailer(f.Data); ok && int(server) < len(t.tracked) {
		t.tracked[server] = load
		t.resyncs.Inc()
		f.Data, _ = wire.StripLoadTrailer(f.Data)
		if t.hop != nil {
			if ctx := traceCtx(f.Data); ctx != 0 {
				t.hop.Switch(ctx, int64(t.eng.Now()), -1)
			}
		}
	}
	return f, nil, true
}

// traceCtx extracts the trace trailer context from a raw Ethernet frame
// whose load trailer (if any) has already been stripped: the trailer sits
// immediately past the IPv4 TotalLen.
func traceCtx(data []byte) uint64 {
	if len(data) < wire.EthHeaderLen+wire.IPv4HeaderLen {
		return 0
	}
	eth, payload, err := wire.ParseEth(data)
	if err != nil || eth.EtherType != wire.EtherTypeIPv4 {
		return 0
	}
	ip, _, err := wire.ParseIPv4(payload)
	if err != nil || len(payload) < int(ip.TotalLen)+wire.TraceTrailerLen {
		return 0
	}
	return wire.ParseTraceTrailer(payload[ip.TotalLen:])
}
