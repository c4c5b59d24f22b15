package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// passConfig says how one pass over one workload is measured.
type passConfig struct {
	wl        *workload
	in        *inputs
	sliceReqs int
	// slices is the fixed window: counts (allocations, live heap, modelled
	// latency, package counters) are taken over exactly this many slices
	// so that they repeat exactly. Never below 20 outside tests.
	slices int
	// seconds keeps slicing past the fixed window until this much wall
	// time has been measured; the extra slices only steady the wall-clock
	// estimators. Zero stops at the fixed window.
	seconds float64
	// setups is how many times the world is built, connected and warmed
	// up; setup_s is the median.
	setups int
	traced bool
}

// fixedSlices is the fixed window of every real run.
const fixedSlices = 20

// percentileChunk is the fewest latency samples a set of percentiles is taken
// over: the fewest that leave minBeyond samples beyond a p99. A chunk is one
// slice, or as many as it takes to hold that many.
const percentileChunk = 1000

// passResult is everything one pass measured.
type passResult struct {
	Procs       int
	SetupS      []float64 // one per set-up
	Wall, CPU   []float64 // ns per request, one per slice
	P50, P99    []float64 // wall µs per request, one per chunk of slices
	R50, R99    []float64 // the same over the chunk's mean latency
	LatSamples  int       // latency samples per chunk
	Requests    int       // requests in the fixed window
	AllRequests int       // requests in every measured slice
	Allocs      float64   // Go heap objects per request, fixed window
	AllocBytes  float64
	LiveHeapKB  float64

	// The modelled ledger: client-observed latency on the libOS's virtual
	// clock over the fixed window. Zero on Catnap, which has no model.
	VirtP50us, VirtP99us float64
	Virt                 []uint32   // the latency sequence in ns, to compare passes exactly
	ClassVirtUs          [2]float64 // mean by request class (kv: GET, SET)

	Counters counters // deltas over the fixed window
	LiveEnd  int      // DMA-heap objects still live after the run

	Attempted, Failed int
	Failures          []string

	ConnectWallNs float64
	HeapPerConn   float64
}

func (r *passResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// cpuNow returns the process's user+system CPU time in ns.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPass measures one workload once. With cfg.traced it also returns the
// tracer, whose spans the caller may dump.
func runPass(cfg passConfig) (*passResult, *tracer) {
	res := &passResult{Procs: cfg.wl.Procs()}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(res.Procs))

	res.LatSamples = (percentileChunk + cfg.sliceReqs - 1) / cfg.sliceReqs * cfg.sliceReqs
	lat := make([]uint32, 0, res.LatSamples)
	virt := make([]uint32, 0, cfg.slices*cfg.sliceReqs)

	var kept *tracer
	for k := 0; k < cfg.setups; k++ {
		// The world that is measured is the middle set-up, so that the
		// set-ups sample the machine before and after the window.
		measured := k == cfg.setups/2
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		t0 := time.Now()
		var tr *tracer
		if cfg.traced {
			warm := uint32(cfg.sliceReqs)
			tr = newTracer(warm, warm+uint32(cfg.slices*cfg.sliceReqs), nil)
		}
		w := cfg.wl.build(cfg.in, tr)
		w.run(func() {
			if err := w.connect(); err != nil {
				res.Attempted++
				res.fail("set-up: %v", err)
				return
			}
			m := &measurer{cfg: cfg, res: res, w: w, tr: tr, lat: lat, virt: virt, virtual: cfg.wl.Clock == "virtual"}
			m.slice(0, false) // warm-up: caches fill, lazy set-up finishes; discarded
			res.SetupS = append(res.SetupS, (time.Since(t0) - w.untimed).Seconds())
			if measured {
				m.window(&base)
			}
			w.teardown()
		})
		if !measured {
			continue
		}
		kept = tr
		res.ConnectWallNs, res.HeapPerConn = w.connectWallNs, w.heapBytesPerConn
		res.LiveEnd = w.leaks()
		res.Attempted++
		if res.LiveEnd != 0 {
			res.fail("%d DMA-heap objects still live after the run", res.LiveEnd)
		}
	}
	return res, kept
}

// measurer is the client-side loop of one built world.
type measurer struct {
	cfg     passConfig
	res     *passResult
	w       *world
	tr      *tracer
	lat     []uint32 // wall ns per request, current chunk
	virt    []uint32 // virtual ns per request, fixed window
	virtual bool
	classNs [2]int64 // virtual ns by request class, fixed window
	classN  [2]int64
}

// slice runs one slice of requests; slice 0 is the warm-up. Request ids run
// on from slice to slice, so every request of a run has its own inputs.
func (m *measurer) slice(s int, fixed bool) {
	n := m.cfg.sliceReqs
	cpu0 := cpuNow()
	start := time.Now()
	prev := start
	for j := 0; j < n; j++ {
		i := s*n + j
		if m.tr != nil {
			at := m.w.client.now()
			if uint32(i) == m.tr.lo {
				m.tr.winStart.Store(at)
			}
			m.tr.req.Store(uint32(i))
			m.w.client.openAt(spReq, at)
		}
		v0 := m.w.now()
		class, err := m.w.request(i)
		v1 := m.w.now()
		if m.tr != nil {
			at := m.w.client.now()
			m.w.client.closeAt(uint16(class), at)
			if uint32(i) == m.tr.hi-1 {
				m.tr.winEnd.Store(at)
			}
		}
		now := time.Now()
		if s == 0 {
			if err != nil {
				m.res.Attempted++
				m.res.fail("warm-up request %d: %v", i, err)
			}
			continue
		}
		m.res.Attempted++
		if err != nil {
			m.res.fail("request %d: %v", i, err)
		}
		m.lat = append(m.lat, uint32(now.Sub(prev)))
		prev = now
		if fixed && m.virtual {
			d := int64(v1 - v0)
			m.virt = append(m.virt, uint32(d))
			m.classNs[class] += d
			m.classN[class]++
		}
	}
	if s == 0 {
		return
	}
	wall, cpu := float64(prev.Sub(start)), float64(cpuNow()-cpu0)
	m.res.Wall = append(m.res.Wall, wall/float64(n))
	m.res.CPU = append(m.res.CPU, cpu/float64(n))
	m.res.AllRequests += n
	if len(m.lat) == cap(m.lat) {
		m.percentiles()
	}
}

// percentiles reduces a full chunk of latencies to its p50 and p99.
func (m *measurer) percentiles() {
	p50, err50 := percentile(m.lat, 0.50)
	p99, err99 := percentile(m.lat, 0.99)
	if err50 == nil && err99 == nil {
		var sum float64
		for _, v := range m.lat {
			sum += float64(v)
		}
		mean := sum / float64(len(m.lat))
		m.res.P50 = append(m.res.P50, p50/1e3)
		m.res.P99 = append(m.res.P99, p99/1e3)
		m.res.R50 = append(m.res.R50, p50/mean)
		m.res.R99 = append(m.res.R99, p99/mean)
	}
	m.lat = m.lat[:0]
}

// window runs the measured slices: the fixed window, then more until
// cfg.seconds of wall time have been measured.
func (m *measurer) window(base *runtime.MemStats) {
	cfg, res := m.cfg, m.res
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := m.w.counters()
	begin := time.Now()
	for s := 1; ; s++ {
		if s == cfg.slices+1 {
			runtime.ReadMemStats(&m1)
			res.Counters = diff(m.w.counters(), c0)
			res.Requests = cfg.slices * cfg.sliceReqs
			reqs := float64(res.Requests)
			res.Allocs = float64(m1.Mallocs-m0.Mallocs) / reqs
			res.AllocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / reqs
			// Live heap of the system under test: what the Go heap holds
			// with the connections still open, less what it held before
			// the world was built (the harness's own buffers).
			runtime.GC()
			runtime.ReadMemStats(&m1)
			res.LiveHeapKB = (float64(m1.HeapAlloc) - float64(base.HeapAlloc)) / 1024
		}
		if s > cfg.slices && time.Since(begin).Seconds() >= cfg.seconds {
			break
		}
		m.slice(s, s <= cfg.slices)
	}
	if m.virtual {
		m.modelled()
	}
	if res.Counters.Retransmits != 0 {
		res.fail("%d TCP retransmits on a lossless fabric", res.Counters.Retransmits)
	}
	if res.Counters.RxDrops != 0 {
		res.fail("%d frames dropped at the NIC", res.Counters.RxDrops)
	}
	if res.Counters.AOFErrors != 0 {
		res.fail("%d AOF write errors", res.Counters.AOFErrors)
	}
	res.Attempted += 3
}

// modelled reduces the fixed window's virtual latencies.
func (m *measurer) modelled() {
	res := m.res
	res.Virt = m.virt
	for c := range m.classNs {
		if m.classN[c] > 0 {
			res.ClassVirtUs[c] = float64(m.classNs[c]) / float64(m.classN[c]) / 1e3
		}
	}
	sorted := slices.Clone(m.virt)
	if p, err := percentile(sorted, 0.50); err == nil {
		res.VirtP50us = p / 1e3
	}
	if p, err := percentile(sorted, 0.99); err == nil {
		res.VirtP99us = p / 1e3
	}
}

func diff(a, b counters) counters {
	return counters{
		SchedPolls: a.SchedPolls - b.SchedPolls, SchedEmpty: a.SchedEmpty - b.SchedEmpty,
		SimEvents: a.SimEvents - b.SimEvents,
		TxFrames:  a.TxFrames - b.TxFrames, PureAcks: a.PureAcks - b.PureAcks,
		ZeroCopyTx: a.ZeroCopyTx - b.ZeroCopyTx, CopiedTx: a.CopiedTx - b.CopiedTx,
		Retransmits: a.Retransmits - b.Retransmits, RxDrops: a.RxDrops - b.RxDrops,
		HeapAllocs:   a.HeapAllocs - b.HeapAllocs,
		CatmemStalls: a.CatmemStalls - b.CatmemStalls, CattreeAppends: a.CattreeAppends - b.CattreeAppends,
		AOFErrors: a.AOFErrors - b.AOFErrors,
	}
}
