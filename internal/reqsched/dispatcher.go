package reqsched

import (
	"time"

	"demikernel/internal/sim"
)

// A Dispatcher is the intra-server scheduling layer as an embeddable
// component: a policy-governed worker pool living inside an existing
// simulation. The standalone Run harness is built on it, and the rack
// subsystem embeds one per server host — the host-local half of the
// RackSched two-layer scheduler, whose instantaneous Load is the signal
// piggybacked to the ToR on every reply.
//
// The Dispatcher is driven entirely by engine events, so it composes with
// any node (a Catnip server core submits from its app coroutine; completion
// callbacks run as engine events and may target a node to wake it). The
// engine's baton discipline serializes all access.
type Dispatcher struct {
	eng      *sim.Engine
	policy   Policy
	busy     []bool
	queue    []pendingReq
	queueCap int

	inService  int
	dropped    uint64
	dispatched uint64
	maxLoad    int

	// Weighted-fair dispatch across tenants: served banks each tenant's
	// dispatched service time (its virtual clock), weights its share.
	// Disarmed (wfq false) until a nonzero tenant appears, so the legacy
	// FCFS skip-scan — whose exact event ordering the rack tests pin —
	// runs unchanged for single-tenant servers. Maps are keyed-access
	// only, never ranged: determinism.
	wfq     bool
	weights map[uint32]uint64
	served  map[uint32]uint64
}

// pendingReq is one submitted request awaiting a worker.
type pendingReq struct {
	tenant  uint32
	class   Class
	service time.Duration
	done    func(start, end sim.Time)
}

// NewDispatcher returns a dispatcher with the given worker count, admission
// policy and queue bound (0 means unbounded).
func NewDispatcher(eng *sim.Engine, workers int, policy Policy, queueCap int) *Dispatcher {
	if workers < 1 {
		workers = 1
	}
	return &Dispatcher{
		eng:      eng,
		policy:   policy,
		busy:     make([]bool, workers),
		queueCap: queueCap,
	}
}

// Policy returns the admission policy.
func (d *Dispatcher) Policy() Policy { return d.policy }

// Load returns the instantaneous outstanding-request count: queued plus in
// service. This is the load signal a rack server piggybacks to the ToR on
// every reply (RackSched's per-server state).
//
//demi:nonalloc
func (d *Dispatcher) Load() int { return len(d.queue) + d.inService }

// Queued returns the number of requests waiting for a worker.
//
//demi:nonalloc
func (d *Dispatcher) Queued() int { return len(d.queue) }

// InService returns the number of requests currently executing.
//
//demi:nonalloc
func (d *Dispatcher) InService() int { return d.inService }

// Dropped returns the number of requests rejected by the queue bound.
func (d *Dispatcher) Dropped() uint64 { return d.dropped }

// Dispatched returns the number of requests handed to workers.
func (d *Dispatcher) Dispatched() uint64 { return d.dispatched }

// MaxLoad returns the highest Load observed across the run.
func (d *Dispatcher) MaxLoad() int { return d.maxLoad }

// Submit offers one request to the server. It reports false when the queue
// bound rejects it (the caller owns the overload response — a rack server
// still answers, with an error, so the client is never left hanging). done,
// if non-nil, runs as an engine event at completion time with the request's
// service interval; wire a target node wakeup inside it if a parked core
// must notice.
func (d *Dispatcher) Submit(c Class, service time.Duration, done func(start, end sim.Time)) bool {
	return d.SubmitTenant(0, c, service, done)
}

// SetTenantWeight sets a tenant's weighted-fair dispatch share (default 1).
// Any nonzero tenant arms WFQ dispatch.
func (d *Dispatcher) SetTenantWeight(tenant uint32, weight uint64) {
	if d.weights == nil {
		d.weights = make(map[uint32]uint64)
		d.served = make(map[uint32]uint64)
	}
	d.weights[tenant] = weight
	if tenant != 0 {
		d.wfq = true
	}
}

// Served returns the service time (ns) dispatched on a tenant's behalf.
func (d *Dispatcher) Served(tenant uint32) uint64 { return d.served[tenant] }

// SubmitTenant is Submit with the request charged to a tenant principal.
func (d *Dispatcher) SubmitTenant(tenant uint32, c Class, service time.Duration, done func(start, end sim.Time)) bool {
	if d.queueCap > 0 && len(d.queue) >= d.queueCap {
		d.dropped++
		return false
	}
	if tenant != 0 && !d.wfq {
		d.SetTenantWeight(tenant, 1)
	}
	d.queue = append(d.queue, pendingReq{tenant: tenant, class: c, service: service, done: done})
	if l := d.Load(); l > d.maxLoad {
		d.maxLoad = l
	}
	d.dispatch()
	return true
}

// dispatch assigns queued requests to idle, admissible workers, preserving
// FCFS order within each admissible class: a request is skipped only when
// no idle worker may take it now (long requests must not block shorts bound
// for reserved cores).
func (d *Dispatcher) dispatch() {
	if d.wfq {
		d.dispatchWFQ()
		return
	}
	for i := 0; i < len(d.queue); {
		r := d.queue[i]
		assigned := -1
		for wi := range d.busy {
			if !d.busy[wi] && d.policy.Admit(wi, r.class) {
				assigned = wi
				break
			}
		}
		if assigned < 0 {
			i++
			continue
		}
		d.queue = append(d.queue[:i], d.queue[i+1:]...)
		d.startService(r, assigned)
	}
}

// dispatchWFQ is dispatch under weighted-fair queuing: each round, every
// tenant's head-of-line request with an admissible idle worker is a
// candidate, and the tenant with the smallest virtual time (service ns
// banked / weight, compared by cross-multiplication) wins the slot. FCFS
// holds within a tenant; a flooding tenant's deep backlog only competes
// one request at a time.
func (d *Dispatcher) dispatchWFQ() {
	for {
		chosen, chosenWorker := -1, -1
		var chosenTenant uint32
		considered := make(map[uint32]bool, 4)
		for qi := 0; qi < len(d.queue); qi++ {
			r := d.queue[qi]
			if considered[r.tenant] {
				continue // only the tenant's head-of-line request competes
			}
			considered[r.tenant] = true
			wi := -1
			for w := range d.busy {
				if !d.busy[w] && d.policy.Admit(w, r.class) {
					wi = w
					break
				}
			}
			if wi < 0 {
				continue
			}
			if chosen < 0 || d.vless(r.tenant, chosenTenant) {
				chosen, chosenWorker, chosenTenant = qi, wi, r.tenant
			}
		}
		if chosen < 0 {
			return
		}
		r := d.queue[chosen]
		d.queue = append(d.queue[:chosen], d.queue[chosen+1:]...)
		d.startService(r, chosenWorker)
	}
}

// vless reports whether tenant a's virtual time is strictly behind b's
// (ties keep the earlier-queued candidate).
func (d *Dispatcher) vless(a, b uint32) bool {
	return d.served[a]*d.weightOf(b) < d.served[b]*d.weightOf(a)
}

// weightOf returns a tenant's effective weight (unset = 1).
func (d *Dispatcher) weightOf(tenant uint32) uint64 {
	if w := d.weights[tenant]; w != 0 {
		return w
	}
	return 1
}

// startService runs one request on an idle worker: cross-core handoff,
// then service, then the completion event.
func (d *Dispatcher) startService(r pendingReq, wi int) {
	d.busy[wi] = true
	d.inService++
	d.dispatched++
	if d.served != nil {
		d.served[r.tenant] += uint64(r.service)
	}
	start := d.eng.Now().Add(DispatchCost)
	end := start.Add(r.service)
	d.eng.At(end, nil, func() {
		d.busy[wi] = false
		d.inService--
		if r.done != nil {
			r.done(start, end)
		}
		d.dispatch()
	})
}
