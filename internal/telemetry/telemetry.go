// Package telemetry is the microsecond-scale observability subsystem: a
// registry of named counters, sampled gauges and log-linear latency histograms that
// are allocation-free on the datapath, plus a fixed-capacity flight
// recorder of qtoken lifecycle spans (flight.go) and exporters in aligned
// text, JSON and Prometheus text format (export.go, http.go).
//
// The paper's whole argument is about where nanoseconds go (Fig 5's in-OS
// breakdown, §5.4's 12-cycle context switch, §6.3's 53 ns ingress
// dispatch); because kernel-bypass datapaths also bypass the kernel's
// observability, the datapath OS must carry its own. Design rules:
//
//   - Hot-path operations (Counter.Inc/Add, Histogram.Observe,
//     FlightRecorder.Record) perform zero Go heap allocations and take no
//     locks. Demikernel datapaths are single-threaded per core by design,
//     so metrics are plain per-core structs; multi-core views are built by
//     merging per-core snapshots at export time (export.go).
//   - All timestamps fed to the subsystem are virtual-time nanoseconds, so
//     two same-seed simulation runs produce byte-identical telemetry dumps.
//     Exports order metrics by name, never by map iteration.
//   - The package imports only the standard library; every layer of the
//     datapath (devices, allocator, scheduler, libOSes) can depend on it.
package telemetry

import "sort"

// A Counter is a monotonically increasing metric. The zero value is usable,
// but counters are normally minted by Registry.Counter so they appear in
// exports.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// A Registry names and owns one domain's metrics — typically one core's
// libOS or one device. Metric creation and snapshotting may allocate;
// operating on the returned metrics does not. Registries are not
// goroutine-safe: each belongs to the single thread that runs its datapath.
type Registry struct {
	name     string
	counters map[string]*Counter
	hists    map[string]*Histogram
	samples  map[string]func() int64
}

// NewRegistry returns an empty registry labeled name (e.g. "server/cpu0").
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		samples:  make(map[string]func() int64),
	}
}

// Name returns the registry's label.
func (r *Registry) Name() string { return r.name }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Sample registers a gauge whose value is read by calling fn at snapshot
// time. It is the bridge for pre-existing stats structs: the struct stays
// the hot-path truth, and the registry pulls it into exports with zero
// datapath cost.
func (r *Registry) Sample(name string, fn func() int64) { r.samples[name] = fn }

// Snapshot captures every metric's current value, with names sorted for
// deterministic export. Sampled gauges are evaluated here.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Name: r.name}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterVal{Name: name, Value: c.v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, fn := range r.samples {
		s.Gauges = append(s.Gauges, GaugeVal{Name: name, Value: fn()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for name, h := range r.hists {
		s.Hists = append(s.Hists, h.snapshot(name))
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}
