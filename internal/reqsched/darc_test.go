package reqsched

import (
	"testing"
	"time"

	"demikernel/internal/sim"
)

// TestDARCAdmitTable pins the reservation rule itself across its edges:
// Reserved=0 admits everything everywhere (degenerates to c-FCFS), a full
// reservation admits Long nowhere, and the boundary worker Reserved is the
// first one a Long request may use.
func TestDARCAdmitTable(t *testing.T) {
	cases := []struct {
		name     string
		reserved int
		worker   int
		class    Class
		want     bool
	}{
		{"zero reservation, short on worker 0", 0, 0, Short, true},
		{"zero reservation, long on worker 0", 0, 0, Long, true},
		{"short on reserved core", 2, 0, Short, true},
		{"short on shared core", 2, 5, Short, true},
		{"long on last reserved core", 2, 1, Long, false},
		{"long on first shared core", 2, 2, Long, true},
		{"full reservation, long anywhere", 8, 7, Long, false},
		{"full reservation, short anywhere", 8, 7, Short, true},
		{"over-reservation, long beyond pool", 16, 7, Long, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DARC{Reserved: tc.reserved}.Admit(tc.worker, tc.class)
			if got != tc.want {
				t.Errorf("DARC{Reserved: %d}.Admit(%d, class %d) = %v, want %v",
					tc.reserved, tc.worker, tc.class, got, tc.want)
			}
		})
	}
}

// TestDARCZeroReservedMatchesFCFS runs the same seeded workload under FCFS
// and DARC{Reserved: 0}; with no cores reserved the two policies must make
// identical scheduling decisions, request by request.
func TestDARCZeroReservedMatchesFCFS(t *testing.T) {
	w := HighDispersion(4000, 0.8, 4)
	f := Run(13, 4, FCFS{}, w, 1<<20)
	d := Run(13, 4, DARC{Reserved: 0}, w, 1<<20)
	if len(f.ShortLats) != len(d.ShortLats) || len(f.LongLats) != len(d.LongLats) {
		t.Fatalf("request accounting diverged: FCFS %d/%d, DARC0 %d/%d",
			len(f.ShortLats), len(f.LongLats), len(d.ShortLats), len(d.LongLats))
	}
	for i := range f.ShortLats {
		if f.ShortLats[i] != d.ShortLats[i] {
			t.Fatalf("short latency %d diverged: FCFS=%v DARC0=%v", i, f.ShortLats[i], d.ShortLats[i])
		}
	}
	for i := range f.LongLats {
		if f.LongLats[i] != d.LongLats[i] {
			t.Fatalf("long latency %d diverged: FCFS=%v DARC0=%v", i, f.LongLats[i], d.LongLats[i])
		}
	}
	if f.Dropped != d.Dropped {
		t.Errorf("drops diverged: FCFS=%d DARC0=%d", f.Dropped, d.Dropped)
	}
}

// TestDARCFullReservationStarvesLongs covers Reserved >= workers: no worker
// may ever take a Long request, so longs pile up unserved while shorts keep
// completing — the run must still terminate rather than spin on the
// unservable queue head.
func TestDARCFullReservationStarvesLongs(t *testing.T) {
	w := Workload{
		Interarrival: time.Microsecond,
		ShortService: 500 * time.Nanosecond,
		LongService:  50 * time.Microsecond,
		LongFraction: 0.25,
		Count:        400,
	}
	for _, reserved := range []int{4, 9} { // exactly all workers, and beyond
		res := Run(17, 4, DARC{Reserved: reserved}, w, 1<<20)
		if len(res.LongLats) != 0 {
			t.Errorf("Reserved=%d: %d long requests completed on fully reserved cores", reserved, len(res.LongLats))
		}
		if len(res.ShortLats) == 0 {
			t.Errorf("Reserved=%d: no short requests completed", reserved)
		}
		starved := w.Count - len(res.ShortLats) - res.Dropped
		if starved == 0 {
			t.Errorf("Reserved=%d: workload generated no long requests; starvation not exercised", reserved)
		}
	}
}

// TestDispatcherEmptyQueue exercises the embeddable Dispatcher around the
// empty-queue edges: Load is zero before any submit, dispatch on an empty
// queue is a no-op, and a lone request runs to completion with the dispatch
// handoff charged.
func TestDispatcherEmptyQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDispatcher(eng, 2, DARC{Reserved: 1}, 0)
	if d.Load() != 0 || d.Queued() != 0 || d.InService() != 0 {
		t.Fatalf("fresh dispatcher not idle: load=%d queued=%d inService=%d",
			d.Load(), d.Queued(), d.InService())
	}

	completions := 0
	eng.At(0, nil, func() {
		ok := d.Submit(eng.Now(), Short, time.Microsecond, func(start, end sim.Time) {
			if got := end.Sub(start); got != time.Microsecond {
				t.Errorf("service interval = %v, want 1µs", got)
			}
			if start.Sub(sim.Time(0)) != DispatchCost {
				t.Errorf("start = %v, want the dispatch handoff %v", start, DispatchCost)
			}
			completions++
		})
		if !ok {
			t.Error("unbounded dispatcher rejected a submit")
		}
		if d.Load() != 1 || d.InService() != 1 || d.Queued() != 0 {
			t.Errorf("after submit: load=%d inService=%d queued=%d, want 1/1/0",
				d.Load(), d.InService(), d.Queued())
		}
	})
	eng.Run()

	if completions != 1 {
		t.Errorf("completions = %d, want 1", completions)
	}
	if d.Load() != 0 || d.Dispatched() != 1 || d.Dropped() != 0 {
		t.Errorf("after drain: load=%d dispatched=%d dropped=%d", d.Load(), d.Dispatched(), d.Dropped())
	}
	if d.MaxLoad() != 1 {
		t.Errorf("MaxLoad = %d, want 1", d.MaxLoad())
	}
}

// sinkLoad keeps the load reads from being optimized away.
var sinkLoad int

// TestDispatcherQueueCapAndLoad pins the bounded-queue contract: with one
// worker and cap 2, the fourth concurrent submit is rejected, and Load
// reflects queued plus in-service throughout.
func TestDispatcherQueueCapAndLoad(t *testing.T) {
	eng := sim.NewEngine(2)
	d := NewDispatcher(eng, 1, FCFS{}, 2)
	eng.At(0, nil, func() {
		for i := 0; i < 3; i++ {
			if !d.Submit(eng.Now(), Short, time.Microsecond, nil) {
				t.Errorf("submit %d rejected below cap", i)
			}
		}
		if d.Submit(eng.Now(), Short, time.Microsecond, nil) {
			t.Error("submit above queue cap accepted")
		}
		if d.Load() != 3 || d.Queued() != 2 || d.InService() != 1 {
			t.Errorf("load=%d queued=%d inService=%d, want 3/2/1",
				d.Load(), d.Queued(), d.InService())
		}
		// Load is read per reply on a rack server's datapath.
		if n := testing.AllocsPerRun(100, func() { sinkLoad = d.Load() + d.Queued() + d.InService() }); n != 0 {
			t.Errorf("the load reads allocate %v per call, want 0", n)
		}
	})
	eng.Run()
	if d.Load() != 0 {
		t.Errorf("load after drain = %d, want 0", d.Load())
	}
	if d.Dropped() != 1 || d.Dispatched() != 3 {
		t.Errorf("dropped=%d dispatched=%d, want 1/3", d.Dropped(), d.Dispatched())
	}
	if d.MaxLoad() != 3 {
		t.Errorf("MaxLoad = %d, want 3", d.MaxLoad())
	}
}

// TestDispatcherStartsFromSubmitterClock submits from a node whose clock runs
// ahead of the engine's, as a rack server core's does: service starts no
// earlier than the submission plus the dispatch handoff, and a request that
// queued behind another starts no earlier than that one's end plus the
// handoff.
func TestDispatcherStartsFromSubmitterClock(t *testing.T) {
	eng := sim.NewEngine(3)
	d := NewDispatcher(eng, 1, FCFS{}, 0)
	n := eng.NewNode("core")
	var submitted sim.Time
	var starts, ends []sim.Time
	eng.Spawn(n, func() {
		n.Charge(10 * time.Microsecond) // the core is ahead of the engine
		submitted = n.Now()
		for i := 0; i < 2; i++ {
			d.Submit(n.Now(), Short, time.Microsecond, func(start, end sim.Time) {
				starts, ends = append(starts, start), append(ends, end)
			})
		}
	})
	eng.Run()
	if len(starts) != 2 {
		t.Fatalf("%d of 2 requests completed", len(starts))
	}
	if earliest := submitted.Add(DispatchCost); starts[0] < earliest {
		t.Errorf("first request started at %v, before its submission at %v plus the handoff", starts[0], submitted)
	}
	if earliest := ends[0].Add(DispatchCost); starts[1] < earliest {
		t.Errorf("queued request started at %v, before the first ended at %v plus the handoff", starts[1], ends[0])
	}
}
