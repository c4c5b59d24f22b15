// Package faults is the deterministic, seed-driven fault-plan engine. A
// Plan names a set of injection sites ("dpdk.corrupt", "spdk.ioerr", ...);
// each site decides, per operation and per virtual-time instant, whether a
// fault fires. All randomness derives from the plan seed and the site name,
// so two runs with the same seed — regardless of site registration order —
// inject byte-identical fault sequences, and a fault observed in a chaos
// soak can be replayed exactly for debugging (mirroring the telemetry
// subsystem's byte-identical-dump guarantee).
//
// Sites are pull-model hooks: the device or allocator calls Fire (point
// faults: drop/corrupt/error this one operation) or Active (window faults:
// a stall or link flap that persists for Spec.Duration of virtual time) on
// its own datapath. A nil *Site is inert — a device holds a nil site for
// every fault class the current plan does not configure, so the hooks cost
// one nil check when chaos is off.
//
// The package imports only sim (time + RNG) and telemetry (fire counters),
// so every layer of the datapath can depend on it.
package faults

import (
	"time"

	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Spec declares when a site's fault fires. Triggers compose: a fault fires
// when the op counter matches Every (if set), or the probability draw
// succeeds (if Prob > 0) — but never outside the [After, Until] virtual-time
// window, and never more than Max times.
type Spec struct {
	// Prob fires the fault on each eligible operation with this
	// probability (0 disables the probabilistic trigger).
	Prob float64
	// Every fires the fault on every Every-th eligible operation at the
	// site (0 disables the counter trigger). Primes make good values:
	// they decorrelate from power-of-two batch sizes.
	Every uint64
	// After suppresses the fault before this virtual-time offset, letting
	// connection handshakes complete cleanly. Zero means from the start.
	After time.Duration
	// Until suppresses the fault at or past this virtual-time offset.
	// Zero means forever.
	Until time.Duration
	// Max caps the total number of firings (0 means unlimited).
	Max uint64
	// Duration is the length of the window a firing opens, for window
	// faults queried through Active (stalls, link flaps, latency spikes).
	Duration time.Duration
}

// An Observer is notified of every site firing: the site's name and the
// virtual-time instant. The distributed tracer hooks in here so chaos
// faults appear inside the traces of the requests they hit.
type Observer func(name string, at sim.Time)

// A Plan is one seeded fault schedule: a namespace of sites plus the
// telemetry registry that records, deterministically, how often each fired.
type Plan struct {
	seed  uint64
	reg   *telemetry.Registry
	sites map[string]*Site
	obs   Observer
}

// NewPlan returns an empty plan. Every site minted from it derives its
// random stream from seed and the site's name only.
func NewPlan(seed uint64) *Plan {
	return &Plan{
		seed:  seed,
		reg:   telemetry.NewRegistry("faults"),
		sites: make(map[string]*Site),
	}
}

// Telemetry returns the registry holding one "faults.<name>" counter per
// site, for asserting fault coverage and for determinism dumps.
func (p *Plan) Telemetry() *telemetry.Registry { return p.reg }

// Site registers (or returns the existing) injection site called name,
// configured by spec. Re-registering a name returns the original site
// unchanged, so plans can be handed to several devices safely.
func (p *Plan) Site(name string, spec Spec) *Site {
	if s, ok := p.sites[name]; ok {
		return s
	}
	s := &Site{
		name: name,
		spec: spec,
		rng:  sim.NewRand(p.seed ^ hashName(name)),
		obs:  p.obs,
	}
	p.reg.Count("faults."+name, &s.count)
	p.sites[name] = s
	return s
}

// SetObserver installs fn on every current and future site of the plan.
// Observation is passive — it never changes whether or when faults fire,
// so an observed plan replays identically to an unobserved one.
func (p *Plan) SetObserver(fn Observer) {
	p.obs = fn
	for _, s := range p.sites {
		s.obs = fn
	}
}

// Fired returns how many times the named site has fired (0 for unknown
// sites), for soak-harness coverage assertions.
func (p *Plan) Fired(name string) uint64 {
	if s, ok := p.sites[name]; ok {
		return s.Count()
	}
	return 0
}

// hashName is FNV-1a, fixed here (not hash/fnv) so the mapping from site
// name to RNG stream is frozen independent of the standard library.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// A Site is one named injection point. All methods are safe on a nil
// receiver and report "no fault", so hooks need no configuration checks.
type Site struct {
	name    string
	spec    Spec
	rng     *sim.Rand
	obs     Observer
	ops     uint64
	count   uint64
	openEnd sim.Time
}

// Name returns the site's name ("" for nil).
func (s *Site) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Spec returns the site's configuration (zero for nil), so hooks can read
// payload parameters such as Duration.
func (s *Site) Spec() Spec {
	if s == nil {
		return Spec{}
	}
	return s.spec
}

// Count returns how many times the site has fired.
func (s *Site) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Rand returns the site's private random stream, for fault payload
// decisions (which bit to flip, how many blocks to tear). It is nil for a
// nil site; only call it after Fire or Active reported true.
func (s *Site) Rand() *sim.Rand {
	if s == nil {
		return nil
	}
	return s.rng
}

func (s *Site) inWindow(now sim.Time) bool {
	if now < sim.Time(s.spec.After) {
		return false
	}
	if s.spec.Until > 0 && now >= sim.Time(s.spec.Until) {
		return false
	}
	return true
}

// Fire reports whether a point fault fires for the operation happening at
// virtual time now. Each call counts one eligible operation.
func (s *Site) Fire(now sim.Time) bool {
	if s == nil {
		return false
	}
	if !s.inWindow(now) || (s.spec.Max > 0 && s.count >= s.spec.Max) {
		return false
	}
	s.ops++
	hit := s.spec.Every > 0 && s.ops%s.spec.Every == 0
	if !hit && s.spec.Prob > 0 {
		hit = s.rng.Bool(s.spec.Prob)
	}
	if hit {
		s.count++
		if s.obs != nil {
			s.obs(s.name, now)
		}
	}
	return hit
}

// Active reports whether a window fault covers virtual time now. A trigger
// (same rules as Fire) opens a window of Spec.Duration; while a window is
// open, Active returns true without consuming further triggers.
func (s *Site) Active(now sim.Time) bool {
	if s == nil {
		return false
	}
	if now < s.openEnd {
		return true
	}
	if s.Fire(now) {
		s.openEnd = now.Add(s.spec.Duration)
		return true
	}
	return false
}
