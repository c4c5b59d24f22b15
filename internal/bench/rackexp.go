package bench

// Rack-scale two-layer scheduling experiment: a ToR switch model fronting
// N multi-core hosts serving one replicated KV VIP, sweeping the policy
// matrix — inter-server placement at the switch (random, round-robin,
// power-of-k over piggybacked load) crossed with intra-server dispatch
// (c-FCFS vs DARC). The RackSched claim this reproduces: load signals at
// the switch fix cross-server imbalance, core reservations at the host fix
// head-of-line blocking within a server, and the composition beats either
// layer alone on the short-request tail.

import (
	"fmt"
	"slices"
	"time"

	"demikernel/internal/rack"
	"demikernel/internal/reqsched"
)

// rackReserved is how many cores per host DARC reserves for short
// requests.
const rackReserved = 1

// Rack runs the policy matrix and renders the comparison tables.
func Rack() ([]*Table, error) {
	// The rack is sized so the policy gaps are unambiguous while staying
	// fast enough for the full bench run.
	cfg := rack.DefaultConfig()
	cfg.Clients = 48
	cfg.Workload.Requests = 150
	cfg.Workload.MeanThink = time.Microsecond
	cfg.Workload.MaxSize = 64 << 10
	type cell struct {
		placer rack.Placer
		host   reqsched.Policy
	}
	cells := []cell{
		{rack.Random{}, reqsched.FCFS{}},
		{&rack.RoundRobin{}, reqsched.FCFS{}},
		{rack.PowerOfK{K: 2}, reqsched.FCFS{}},
		{rack.Random{}, reqsched.DARC{Reserved: rackReserved}},
		{&rack.RoundRobin{}, reqsched.DARC{Reserved: rackReserved}},
		{rack.PowerOfK{K: 2}, reqsched.DARC{Reserved: rackReserved}},
	}

	matrix := &Table{
		Title: "Rack: two-layer scheduling, ToR placement x host dispatch",
		Note: fmt.Sprintf("%d hosts x %d cores, %d closed-loop clients, %d KV GETs each; "+
			"bounded-Pareto values to %dKiB; DARC reserves %d core(s) for shorts",
			cfg.Servers, cfg.CoresPerServer, cfg.Clients, cfg.Workload.Requests,
			cfg.Workload.MaxSize>>10, rackReserved),
		Header: []string{"ToR placement", "host dispatch", "short p50 (µs)", "short p99 (µs)", "short p999 (µs)", "long p99 (µs)", "elapsed (ms)"},
	}
	spread := &Table{
		Title:  "Rack: ToR placement spread and load tracking",
		Note:   "placements min/max across servers; resyncs = reply load-trailers absorbed by the ToR; peak load = max host dispatcher backlog",
		Header: []string{"ToR placement", "host dispatch", "placements min/max", "resyncs", "peak host load min/max"},
	}
	for _, c := range cells {
		cfg.Placer, cfg.HostPolicy = c.placer, c.host
		res, err := rack.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("rack %s/%s: %w", c.placer.Name(), c.host.Name(), err)
		}
		matrix.AddRow(res.Placer, res.HostPolicy,
			Micros(rack.Quantile(res.ShortLats, 0.5)),
			Micros(rack.Quantile(res.ShortLats, 0.99)),
			Micros(rack.Quantile(res.ShortLats, 0.999)),
			Micros(rack.Quantile(res.LongLats, 0.99)),
			fmt.Sprintf("%.3f", res.Elapsed.Seconds()*1e3))
		spread.AddRow(res.Placer, res.HostPolicy,
			fmt.Sprintf("%d / %d", slices.Min(res.Placements), slices.Max(res.Placements)),
			fmt.Sprintf("%d", res.Resyncs),
			fmt.Sprintf("%d / %d", slices.Min(res.MaxLoads), slices.Max(res.MaxLoads)))
		if telemetrySink != nil {
			fmt.Fprintf(telemetrySink, "\n-- telemetry: rack %s + %s --\n", res.Placer, res.HostPolicy)
			fmt.Fprint(telemetrySink, res.TelemetryText)
		}
	}
	return []*Table{matrix, spread}, nil
}
