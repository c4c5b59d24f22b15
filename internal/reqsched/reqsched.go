// Package reqsched reproduces, in miniature, the request-scheduling layer
// the paper delegates to its companion work Perséphone (paper §3.2, §4.1
// C2: "allocating I/O requests among application workers"). It simulates a
// multi-worker server dispatching requests with widely dispersed service
// times and compares dispatch policies:
//
//   - FCFS: one central queue, any idle worker takes the oldest request.
//     Short requests suffer head-of-line blocking behind long ones.
//   - EarliestDeadline-ish "DARC" (Dedicated Application Request Cores,
//     Perséphone's policy): a fraction of workers is reserved for the
//     short request class, so a burst of long requests can never occupy
//     every core.
//
// Workers are simulated cores (sim nodes); dispatch costs a cross-core
// handoff. The headline result — DARC cuts short-request tail latency by
// orders of magnitude under highly dispersed workloads — reproduces
// Perséphone's motivation for building on Demikernel.
package reqsched

import (
	"math"
	"time"

	"demikernel/internal/sim"
)

// Class is a request type.
type Class int

const (
	// Short requests dominate the workload (e.g. Redis GETs).
	Short Class = iota
	// Long requests are rare but 100x heavier (e.g. range scans).
	Long
)

// DispatchCost is the cross-core handoff charged per request (a shared
// memory queue hop; Perséphone's dispatcher is similarly lightweight).
const DispatchCost = 100 * time.Nanosecond

// Request is one unit of work.
type Request struct {
	Class   Class
	Service time.Duration
	arrived sim.Time
}

// Policy selects a worker for the request at the head of the queue.
type Policy interface {
	// Admit reports whether a request of this class may run on worker w.
	Admit(w int, c Class) bool
	// Name labels the policy in results.
	Name() string
}

// FCFS admits any class on any worker (the classic single-queue server).
type FCFS struct{}

// Admit implements Policy.
func (FCFS) Admit(int, Class) bool { return true }

// Name implements Policy.
func (FCFS) Name() string { return "c-FCFS" }

// DARC reserves the first Reserved workers exclusively for Short requests.
type DARC struct {
	Reserved int
}

// Admit implements Policy.
func (d DARC) Admit(w int, c Class) bool {
	if c == Long {
		return w >= d.Reserved
	}
	return true
}

// Name implements Policy.
func (d DARC) Name() string { return "DARC" }

// Workload generates the request stream.
type Workload struct {
	// Interarrival is the mean time between arrivals (exponential).
	Interarrival time.Duration
	// ShortService and LongService are fixed per-class service times.
	ShortService, LongService time.Duration
	// LongFraction is the probability a request is Long.
	LongFraction float64
	// Count is the number of requests.
	Count int
}

// HighDispersion is Perséphone's motivating workload shape: 99.5% short
// (0.5 µs), 0.5% long (500 µs) — a 1000x dispersion.
func HighDispersion(count int, load float64, workers int) Workload {
	w := Workload{
		ShortService: 500 * time.Nanosecond,
		LongService:  500 * time.Microsecond,
		LongFraction: 0.005,
		Count:        count,
	}
	// Effective per-request worker occupancy includes the dispatch hop.
	mean := 0.995*float64(w.ShortService+DispatchCost) + 0.005*float64(w.LongService+DispatchCost)
	w.Interarrival = time.Duration(mean / (load * float64(workers)))
	return w
}

// Result summarizes one run.
type Result struct {
	Policy              string
	ShortLats, LongLats []time.Duration
	Dropped             int
}

// Run simulates the server: an open-loop arrival process feeding a
// Dispatcher that hands requests to idle workers under the policy.
// Requests that find the queue above queueCap are dropped (overload
// control is out of scope; Perséphone pairs with Breakwater for that).
func Run(seed uint64, workers int, policy Policy, w Workload, queueCap int) Result {
	eng := sim.NewEngine(seed)
	rng := eng.Rand().Fork()
	res := Result{Policy: policy.Name()}
	d := NewDispatcher(eng, workers, policy, queueCap)

	// Arrival process.
	var arrive func(i int, at sim.Time)
	arrive = func(i int, at sim.Time) {
		if i >= w.Count {
			return
		}
		eng.At(at, nil, func() {
			r := Request{Class: Short, Service: w.ShortService, arrived: eng.Now()}
			if rng.Float64() < w.LongFraction {
				r.Class = Long
				r.Service = w.LongService
			}
			if !d.Submit(eng.Now(), r.Class, r.Service, func(_, end sim.Time) {
				lat := end.Sub(r.arrived)
				if r.Class == Short {
					res.ShortLats = append(res.ShortLats, lat)
				} else {
					res.LongLats = append(res.LongLats, lat)
				}
			}) {
				res.Dropped++
			}
			// Exponential interarrival via inverse transform.
			gap := expDuration(rng, w.Interarrival)
			arrive(i+1, eng.Now().Add(gap))
		})
	}
	arrive(0, 0)
	eng.Run()
	return res
}

// expDuration draws an exponential duration with the given mean (inverse
// transform sampling).
func expDuration(rng *sim.Rand, mean time.Duration) time.Duration {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return time.Duration(-float64(mean) * math.Log(u))
}
