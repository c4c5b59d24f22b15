// Package tenant makes tenants first-class datapath principals (ROADMAP
// "Multi-tenant datapath"; cf. "Safe Sharing of Fast Kernel-Bypass I/O
// Among Nontrusting Applications"). A Tenant bundles an identity, its
// resource limits, and its quota accounting; Join hands it its
// capability to a shared library OS, a core.Handle whose every call the
// PDPIX front end checks against the tenant with complete-or-error
// semantics.
//
// The isolation model, layer by layer:
//
//   - descriptors are capabilities: the front end records the tenant that
//     created or accepted each one, and a tenant naming another's, or an
//     unknown one, gets ErrBadQDesc.
//   - qtokens are capabilities: core.TokenTable stamps every op with the
//     issuing tenant and TryTakeAs rejects cross-tenant redemption with
//     ErrBadQToken, without consuming the victim's op.
//   - DMA memory is partitioned: memory.Heap gives each tenant its own
//     superblocks and a byte quota (ErrNoMem on breach), reached through a
//     memory.TenantHeap capability whose TryFree turns double-free and
//     foreign-free abuse into errors instead of panics.
//   - flow-table entries, in-flight qtokens and push rate are accounted
//     here (Tenant is a core.Quota) and charged by the front end, rejected
//     with core.ErrTenantQuota at the call site (the caller keeps buffer
//     ownership; nothing is left outstanding).
//   - poll cycles are shared weighted-fair (sched WFQ), so a flooding
//     tenant cannot monopolize the datapath.
//
// Tenant id 0 is the host: the trusted infrastructure principal, never
// limited, whose calls are a library OS's own and name any descriptor.
package tenant

import (
	"fmt"

	"demikernel/internal/core"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Shared is a library OS tenants can share: every libOS is one, through
// the front end it embeds.
type Shared interface {
	As(q core.Quota) *core.Handle
}

// Registrar is implemented by library OSes whose coroutine scheduler does
// weighted-fair queuing across tenants.
type Registrar interface {
	RegisterTenant(tid uint32, weight uint32)
}

// Join hands tenant t its handle on a shared library OS, installing its heap
// quota and its scheduler weight. The handle is a demi.LibOS, so tenant
// applications run unmodified; allocations charged to the tenant go through
// Heap().Tenant(t.ID()).
func (t *Tenant) Join(os Shared) *core.Handle {
	h := os.As(t)
	if t.lim.HeapBytes > 0 {
		h.Heap().SetTenantQuota(t.id, t.lim.HeapBytes)
	}
	if r, ok := os.(Registrar); ok {
		w := t.lim.Weight
		if w == 0 {
			w = 1
		}
		r.RegisterTenant(t.id, w)
	}
	return h
}

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

	// Isolation violations are observable, not just fatal: what was
	// refused, counted here and exported by Publish.
	flowRejects, tokenRejects, rateRejects uint64
	badWaits, forgeries                    uint64
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
	reg.Count(p+"quota_rejects.flows", &t.flowRejects)
	reg.Count(p+"quota_rejects.tokens", &t.tokenRejects)
	reg.Count(p+"quota_rejects.push_rate", &t.rateRejects)
	reg.Count(p+"bad_token_waits", &t.badWaits)
	reg.Count(p+"forgery_attempts", &t.forgeries)
	reg.Sample(p+"flows", func() int64 { return int64(t.flows) })
	reg.Sample(p+"tokens_inflight", func() int64 { return int64(t.tokens) })
}

// NoteForgery counts one cross-tenant redemption attempt made *by* this
// tenant (wired from the token table via Registry.AttachTable).
func (t *Tenant) NoteForgery() { t.forgeries++ }

// NoteBadWait counts a rejected token redemption observed at this
// tenant's own wait (its forged guesses and its stale-token bugs alike).
func (t *Tenant) NoteBadWait() { t.badWaits++ }

// AcquireFlow charges one flow-table entry, or ErrTenantQuota at the cap.
func (t *Tenant) AcquireFlow() error {
	if t.lim.MaxFlows > 0 && t.flows >= t.lim.MaxFlows {
		t.flowRejects++
		return core.ErrTenantQuota
	}
	t.flows++
	return nil
}

// ReleaseFlow credits one flow-table entry back (close, failed connect,
// failed accept). Releasing below zero panics: that is a front-end bug.
func (t *Tenant) ReleaseFlow() {
	if t.flows == 0 {
		panic("tenant: flow release without acquire")
	}
	t.flows--
}

// AcquireToken charges one in-flight qtoken, or ErrTenantQuota at the cap.
func (t *Tenant) AcquireToken() error {
	if t.lim.MaxTokens > 0 && t.tokens >= t.lim.MaxTokens {
		t.tokenRejects++
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

// AllowPush refills the push-rate bucket to virtual time now and reports
// ErrTenantQuota when the tenant is pushing faster than its rate. It spends
// nothing: ChargePush does, once the push is issued, so a push refused for
// any reason costs no credit.
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
		t.rateRejects++
		return core.ErrTenantQuota
	}
	return nil
}

// ChargePush spends one push of the credit AllowPush found.
func (t *Tenant) ChargePush() {
	if t.lim.PushRate > 0 {
		t.bucket -= nanoPush
	}
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
