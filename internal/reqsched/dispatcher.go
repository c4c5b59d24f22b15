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
}

// pendingReq is one submitted request awaiting a worker.
type pendingReq struct {
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

// Load returns the instantaneous outstanding-request count: queued plus in
// service. This is the load signal a rack server piggybacks to the ToR on
// every reply (RackSched's per-server state).
func (d *Dispatcher) Load() int { return len(d.queue) + d.inService }

// Queued returns the number of requests waiting for a worker.
func (d *Dispatcher) Queued() int { return len(d.queue) }

// InService returns the number of requests currently executing.
func (d *Dispatcher) InService() int { return d.inService }

// Dropped returns the number of requests rejected by the queue bound.
func (d *Dispatcher) Dropped() uint64 { return d.dropped }

// Dispatched returns the number of requests handed to workers.
func (d *Dispatcher) Dispatched() uint64 { return d.dispatched }

// MaxLoad returns the highest Load observed across the run.
func (d *Dispatcher) MaxLoad() int { return d.maxLoad }

// Submit offers one request to the server at now, the submitter's clock: a
// rack server core runs ahead of the engine, and service must not start
// before the request was submitted. It reports false when the queue
// bound rejects it (the caller owns the overload response — a rack server
// still answers, with an error, so the client is never left hanging). done,
// if non-nil, runs as an engine event at completion time with the request's
// service interval; wire a target node wakeup inside it if a parked core
// must notice.
func (d *Dispatcher) Submit(now sim.Time, c Class, service time.Duration, done func(start, end sim.Time)) bool {
	if d.queueCap > 0 && len(d.queue) >= d.queueCap {
		d.dropped++
		return false
	}
	d.queue = append(d.queue, pendingReq{class: c, service: service, done: done})
	if l := d.Load(); l > d.maxLoad {
		d.maxLoad = l
	}
	d.dispatch(now)
	return true
}

// dispatch assigns queued requests to idle, admissible workers, preserving
// FCFS order within each admissible class: a request is skipped only when
// no idle worker may take it now (long requests must not block shorts bound
// for reserved cores). Service starts from now.
func (d *Dispatcher) dispatch(now sim.Time) {
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
		d.startService(now, r, assigned)
	}
}

// startService runs one request on an idle worker from now: cross-core
// handoff, then service, then the completion event.
func (d *Dispatcher) startService(now sim.Time, r pendingReq, wi int) {
	d.busy[wi] = true
	d.inService++
	d.dispatched++
	start := now.Add(DispatchCost)
	end := start.Add(r.service)
	d.eng.At(end, nil, func() {
		d.busy[wi] = false
		d.inService--
		if r.done != nil {
			r.done(start, end)
		}
		d.dispatch(end)
	})
}
