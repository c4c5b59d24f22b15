package bench

import (
	"time"

	"demikernel/internal/dtrace"
)

// ChainRun is one transport's headline numbers.
type ChainRun struct {
	RTTAvg, RTTP99 time.Duration
	RelayNsPerReq  float64
}

// TracedChain is one traced run of the service chain: the headline numbers,
// the tracer holding every sampled request's events and retained roots, and
// any violations the telemetry cross-check found (empty on a healthy run).
type TracedChain struct {
	Run        ChainRun
	Tracer     *dtrace.Tracer
	Violations []string
}

// RunChainTraced drives the service chain once over the named transport
// ("catmem" or "catloop") with distributed tracing attached to every stage:
// each libOS records op spans and wire/ring transits, each app stage stamps
// its serve interval, and the client roots every sampled post-warmup
// request. The sampled traces are cross-checked against the per-hop qtoken
// latency histograms before returning.
func RunChainTraced(transport string, rounds int, cfg dtrace.Config) (TracedChain, error) {
	tr := dtrace.New(cfg)
	r, err := runChain(transport, rounds, tr)
	if err != nil {
		return TracedChain{}, err
	}
	return TracedChain{
		Run: ChainRun{
			RTTAvg:        r.rtt.Mean(),
			RTTP99:        r.rtt.P99(),
			RelayNsPerReq: r.relayNs,
		},
		Tracer:     tr,
		Violations: dtrace.CrossCheck(tr, r.hists),
	}, nil
}
