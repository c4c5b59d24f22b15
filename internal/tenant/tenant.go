// Package tenant makes tenants first-class datapath principals (ROADMAP
// "Multi-tenant datapath"; cf. "Safe Sharing of Fast Kernel-Bypass I/O
// Among Nontrusting Applications"). A Tenant bundles an identity, its
// resource limits, and its quota accounting; a View (view.go) is the
// tenant's capability to a shared library OS, enforcing those limits with
// complete-or-error semantics at every libcall.
//
// The isolation model, layer by layer:
//
//   - qtokens are capabilities: core.TokenTable stamps every op with the
//     issuing tenant and TryTakeAs rejects cross-tenant redemption with
//     ErrBadQToken, without consuming the victim's op.
//   - DMA memory is partitioned: memory.Heap gives each tenant its own
//     superblocks and a byte quota (ErrNoMem on breach), reached through a
//     memory.TenantHeap capability whose TryFree turns double-free and
//     foreign-free abuse into errors instead of panics.
//   - flow-table entries, in-flight qtokens and push rate are quota'd
//     here, rejected with core.ErrTenantQuota at the call site (the
//     caller keeps buffer ownership; nothing is left outstanding).
//   - poll cycles are shared weighted-fair (sched WFQ), so a flooding
//     tenant cannot monopolize the datapath.
//
// Tenant id 0 is the host: the trusted infrastructure principal, never
// limited, and the only principal that may bypass Views.
package tenant

import (
	"fmt"

	"demikernel/internal/core"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Limits are one tenant's resource caps. Zero values mean unlimited
// (except Weight, where zero means weight 1).
type Limits struct {
	// Weight is the tenant's weighted-fair share of poll cycles.
	Weight uint32
	// HeapBytes caps the tenant's live DMA-heap bytes.
	HeapBytes int64
	// MaxFlows caps flow-table entries (connected + connecting + reserved
	// by outstanding accepts).
	MaxFlows int
	// MaxTokens caps in-flight qtokens (issued, not yet redeemed).
	MaxTokens int
	// PushRate caps pushes per second, token-bucket smoothed.
	PushRate int
	// PushBurst is the bucket depth in pushes (default 8 when PushRate is
	// set).
	PushBurst int
}

// Tenant is one datapath principal: identity, limits and accounting.
// Like everything on the datapath it is single-threaded by design.
type Tenant struct {
	id   uint32
	name string
	lim  Limits

	// Quota accounting must match reality: charging a flow or a token on a
	// rejected acquire leaks quota the tenant never got.
	flows  int // live flow-table entries (and reservations)
	tokens int // in-flight qtokens

	// Push-rate token bucket in "nanopushes" (1e9 per push), refilled
	// from virtual time — integer math only, deterministic.
	bucket   int64
	lastFill sim.Time
	primed   bool

	// Rejection observability (satellite: isolation violations must be
	// observable, not just fatal). Nil until Publish.
	cFlowRej *telemetry.Counter
	cTokRej  *telemetry.Counter
	cRateRej *telemetry.Counter
	cBadWait *telemetry.Counter
	cForgery *telemetry.Counter
}

// nanoPush is one push worth of bucket credit.
const nanoPush = int64(1e9)

// ID returns the tenant's principal id.
func (t *Tenant) ID() uint32 { return t.id }

// Name returns the tenant's human-readable name.
func (t *Tenant) Name() string { return t.name }

// Limits returns the tenant's resource caps.
func (t *Tenant) Limits() Limits { return t.lim }

// Flows returns the live flow-table entries charged to the tenant.
func (t *Tenant) Flows() int { return t.flows }

// InFlight returns the tenant's outstanding qtoken count.
func (t *Tenant) InFlight() int { return t.tokens }

// Publish registers the tenant's quota-rejection and forgery counters
// plus live gauges with reg, namespaced "tenant.<id>.". All three
// exporters (text/JSON/Prometheus) render them like any other metric.
func (t *Tenant) Publish(reg *telemetry.Registry) {
	p := fmt.Sprintf("tenant.%d.", t.id)
	t.cFlowRej = reg.Counter(p + "quota_rejects.flows")
	t.cTokRej = reg.Counter(p + "quota_rejects.tokens")
	t.cRateRej = reg.Counter(p + "quota_rejects.push_rate")
	t.cBadWait = reg.Counter(p + "bad_token_waits")
	t.cForgery = reg.Counter(p + "forgery_attempts")
	reg.Sample(p+"flows", func() int64 { return int64(t.flows) })
	reg.Sample(p+"tokens_inflight", func() int64 { return int64(t.tokens) })
}

// NoteForgery counts one cross-tenant redemption attempt made *by* this
// tenant (wired from the token table via Registry.AttachTable).
func (t *Tenant) NoteForgery() {
	if t.cForgery != nil {
		t.cForgery.Inc()
	}
}

// noteBadWait counts a rejected token redemption observed at this
// tenant's own wait (its forged guesses and its stale-token bugs alike).
func (t *Tenant) noteBadWait() {
	if t.cBadWait != nil {
		t.cBadWait.Inc()
	}
}

// AcquireFlow charges one flow-table entry, or ErrTenantQuota at the cap.
func (t *Tenant) AcquireFlow() error {
	if t.lim.MaxFlows > 0 && t.flows >= t.lim.MaxFlows {
		if t.cFlowRej != nil {
			t.cFlowRej.Inc()
		}
		return core.ErrTenantQuota
	}
	t.flows++
	return nil
}

// ReleaseFlow credits one flow-table entry back (close, failed connect,
// failed accept). Releasing below zero panics: that is a View bug.
func (t *Tenant) ReleaseFlow() {
	if t.flows == 0 {
		panic("tenant: flow release without acquire")
	}
	t.flows--
}

// AcquireToken charges one in-flight qtoken, or ErrTenantQuota at the cap.
func (t *Tenant) AcquireToken() error {
	if t.lim.MaxTokens > 0 && t.tokens >= t.lim.MaxTokens {
		if t.cTokRej != nil {
			t.cTokRej.Inc()
		}
		return core.ErrTenantQuota
	}
	t.tokens++
	return nil
}

// ReleaseToken credits one in-flight qtoken back (redemption).
func (t *Tenant) ReleaseToken() {
	if t.tokens == 0 {
		panic("tenant: token release without acquire")
	}
	t.tokens--
}

// AllowPush debits the push-rate bucket at virtual time now, or
// ErrTenantQuota when the tenant is pushing faster than its rate.
func (t *Tenant) AllowPush(now sim.Time) error {
	if t.lim.PushRate <= 0 {
		return nil
	}
	burst := t.lim.PushBurst
	if burst <= 0 {
		burst = 8
	}
	depth := int64(burst) * nanoPush
	if !t.primed {
		t.bucket = depth // a fresh tenant starts with a full bucket
		t.primed = true
	} else if now > t.lastFill {
		elapsed := int64(now - t.lastFill) // ns of virtual time
		if elapsed > int64(10e9) {
			t.bucket = depth // >10s idle: full refill, no overflow risk
		} else {
			t.bucket += elapsed * int64(t.lim.PushRate)
			if t.bucket > depth {
				t.bucket = depth
			}
		}
	}
	t.lastFill = now
	if t.bucket < nanoPush {
		if t.cRateRej != nil {
			t.cRateRej.Inc()
		}
		return core.ErrTenantQuota
	}
	t.bucket -= nanoPush
	return nil
}

// Registry tracks the tenants sharing one datapath.
type Registry struct {
	byID map[uint32]*Tenant
	ids  []uint32 // creation order: the deterministic iteration order
}

// NewRegistry returns an empty tenant registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[uint32]*Tenant)}
}

// New creates and registers a tenant. Id 0 is reserved for the host, and
// ids are unique.
func (r *Registry) New(id uint32, name string, lim Limits) *Tenant {
	if id == 0 {
		panic("tenant: id 0 is the host principal")
	}
	if _, dup := r.byID[id]; dup {
		panic("tenant: duplicate id " + fmt.Sprint(id))
	}
	t := &Tenant{id: id, name: name, lim: lim}
	r.byID[id] = t
	r.ids = append(r.ids, id)
	return t
}

// Get returns the tenant with the given id, nil if unknown.
func (r *Registry) Get(id uint32) *Tenant { return r.byID[id] }

// AttachTable wires the token table's forgery hook to the registry, so
// every cross-tenant redemption attempt increments the *redeeming*
// tenant's forgery_attempts counter. One table has one hook; attach the
// registry that covers all its tenants.
func (r *Registry) AttachTable(tbl *core.TokenTable) {
	tbl.SetForgeryHook(func(issuer, redeemer uint32) {
		if t := r.byID[redeemer]; t != nil {
			t.NoteForgery()
		}
	})
}
