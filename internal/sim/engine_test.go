package sim

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, nil, func() { got = append(got, 3) })
	e.At(10, nil, func() { got = append(got, 1) })
	e.At(20, nil, func() { got = append(got, 2) })
	e.At(10, nil, func() { got = append(got, 11) }) // same time: FIFO by seq
	e.Run()
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("n")
	var end Time
	e.Spawn(n, func() {
		n.Charge(500 * time.Nanosecond)
		n.Charge(1500 * time.Nanosecond)
		end = n.Now()
	})
	e.Run()
	if end != 2000 {
		t.Errorf("node clock = %v, want 2000ns", end)
	}
	if n.Busy() != 2*time.Microsecond {
		t.Errorf("busy = %v, want 2µs", n.Busy())
	}
}

func TestParkDeadline(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("sleeper")
	var woke Time
	e.Spawn(n, func() {
		if !n.Park(n.Now().Add(5 * time.Microsecond)) {
			t.Error("park returned false before stop")
		}
		woke = n.Now()
	})
	e.Run()
	if woke != 5000 {
		t.Errorf("woke at %v, want 5µs", woke)
	}
}

func TestEventWakesParkedNode(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("rx")
	delivered := false
	var woke Time
	e.Spawn(n, func() {
		for !delivered {
			if !n.Park(Infinity) {
				return
			}
		}
		woke = n.Now()
	})
	e.At(7_000, n, func() { delivered = true })
	e.Run()
	if !delivered {
		t.Fatal("event did not run")
	}
	if woke != 7_000 {
		t.Errorf("woke at %v, want 7µs", woke)
	}
}

// Two nodes exchanging messages through events must interleave in clock
// order: the receiver cannot observe a message before its send time plus
// latency.
func TestCausalPingPong(t *testing.T) {
	e := NewEngine(1)
	a, b := e.NewNode("a"), e.NewNode("b")
	const latency = 2 * time.Microsecond
	var (
		inboxA, inboxB []Time // message receive timestamps
		rounds         = 0
	)
	e.Spawn(a, func() {
		for rounds < 5 {
			a.Charge(100 * time.Nanosecond) // work before send
			e.At(a.Now().Add(latency), b, func() { inboxB = append(inboxB, e.Now()) })
			seen := len(inboxA)
			for len(inboxA) == seen {
				if !a.Park(Infinity) {
					return
				}
			}
			rounds++
		}
		e.Stop()
	})
	e.Spawn(b, func() {
		for {
			seen := len(inboxB)
			for len(inboxB) == seen {
				if !b.Park(Infinity) {
					return
				}
			}
			b.Charge(100 * time.Nanosecond)
			e.At(b.Now().Add(latency), a, func() { inboxA = append(inboxA, e.Now()) })
		}
	})
	e.Run()
	if rounds != 5 {
		t.Fatalf("completed %d rounds, want 5", rounds)
	}
	// Each round is >= 2*latency + 2*work.
	last := Time(0)
	for _, ts := range inboxA {
		if ts < last.Add(2*latency+200*time.Nanosecond) {
			t.Errorf("receive at %v violates round-trip lower bound (prev %v)", ts, last)
		}
		last = ts
	}
}

func TestStopUnblocksParkedNodes(t *testing.T) {
	e := NewEngine(1)
	server := e.NewNode("server")
	exited := false
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
		exited = true
	})
	e.At(1000, nil, func() { e.Stop() })
	e.Run()
	if !exited {
		t.Fatal("server goroutine did not unwind on Stop")
	}
}

func TestQuiescenceWithParkedServer(t *testing.T) {
	// A server parked forever must not prevent Run from returning once all
	// events are drained.
	e := NewEngine(1)
	server := e.NewNode("server")
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
	})
	client := e.NewNode("client")
	e.Spawn(client, func() { client.Charge(time.Microsecond) })
	done := make(chan struct{})
	go func() { e.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not quiesce")
	}
}

// A panic in a node's main must surface from Run on the caller's goroutine,
// with the node finished and every other node released first.
func TestNodeMainPanicReachesRun(t *testing.T) {
	e := NewEngine(1)
	server, bad := e.NewNode("server"), e.NewNode("bad")
	released := false
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
		released = true
	})
	e.Spawn(bad, func() {
		bad.Charge(time.Microsecond)
		bad.Yield()
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
		t.Error("Run returned normally")
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if bad.state != stateFinished {
		t.Errorf("panicked node in state %d, want finished", bad.state)
	}
	if !released || server.state != stateFinished {
		t.Errorf("parked server not released: released=%v state=%d", released, server.state)
	}
	if !bad.Stopped() {
		t.Error("engine not stopped after the panic")
	}
}

// runtime.Goexit in a node's main (what t.Fatal does) takes the goroutine
// that called Run with it; Run must release the other nodes and end rather
// than wait for a baton that never comes back.
func TestNodeMainGoexitDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	server, quitter := e.NewNode("server"), e.NewNode("quitter")
	released, returned := false, false
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
		released = true
	})
	e.Spawn(quitter, func() {
		quitter.Yield()
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after a node's main called Goexit")
	}
	if returned {
		t.Error("Run returned normally; Goexit should have ended its goroutine")
	}
	if quitter.state != stateFinished || !released || server.state != stateFinished {
		t.Errorf("quitter state %d, server released=%v state %d", quitter.state, released, server.state)
	}
}

// An event that panics inside a node's Park must surface from Run as one
// that panics in Run does: after every node, the parker included, was
// released with Park reporting false. The parker is not unwound by it.
func TestEventPanicInsideParkReachesRun(t *testing.T) {
	e := NewEngine(1)
	server, parker := e.NewNode("server"), e.NewNode("parker")
	released, parked, returned := false, true, false
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
		released = true
	})
	e.Spawn(parker, func() {
		// server has parked for good, so this Park runs the event.
		e.At(parker.Now().Add(time.Microsecond), nil, func() { panic("boom") })
		parked = parker.Park(parker.Now().Add(2 * time.Microsecond))
		returned = true
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
		t.Error("Run returned normally")
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if !returned || parked {
		t.Errorf("parker unwound by the panic or not told to stop: returned=%v Park=%v", returned, parked)
	}
	if !released || server.state != stateFinished || parker.state != stateFinished {
		t.Errorf("nodes not released: server released=%v state %d, parker state %d", released, server.state, parker.state)
	}
}

// runtime.Goexit in an event that runs inside a node's Park (what t.Fatal
// does) ends that node's coroutine and then the goroutine that called Run;
// Run must release the other nodes on the way rather than hang.
func TestEventGoexitInsideParkDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	server, parker := e.NewNode("server"), e.NewNode("parker")
	released, resumed, returned := false, false, false
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
		released = true
	})
	e.Spawn(parker, func() {
		e.At(parker.Now().Add(time.Microsecond), nil, runtime.Goexit)
		parker.Park(parker.Now().Add(2 * time.Microsecond))
		resumed = true
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after an event inside Park called Goexit")
	}
	if returned || resumed {
		t.Errorf("Goexit should have ended the parker and Run's goroutine: parker resumed=%v, Run returned=%v", resumed, returned)
	}
	if parker.state != stateFinished || !released || server.state != stateFinished {
		t.Errorf("parker state %d, server released=%v state %d", parker.state, released, server.state)
	}
}

// countSteps makes n's baton count every time Run steps n into *c.
func countSteps(n *Node, c *uint64) {
	next := n.next
	n.next = func() (struct{}, bool) {
		*c++
		return next()
	}
}

// countSwitches spawns fn as n's main and counts into *c every coroutine
// switch into or out of it that passes the baton: each call of n's next and
// of its yield.
func countSwitches(e *Engine, n *Node, c *uint64, fn func()) {
	e.Spawn(n, func() {
		yield := n.yield
		n.yield = func(v struct{}) bool {
			*c++
			return yield(v)
		}
		fn()
	})
	next := n.next
	n.next = func() (struct{}, bool) {
		*c++
		return next()
	}
}

// A node that parks and is itself the next to run keeps the baton: a lone
// node parking on deadlines is stepped once, to start it, however often it
// parks. Two nodes waking each other hand the baton over with one coroutine
// switch per park: the parker resumes the other node, or yields back to the
// node that resumed it, never both.
func TestParkKeepsBaton(t *testing.T) {
	e := NewEngine(1)
	lone := e.NewNode("lone")
	var steps uint64
	const parks = 100
	e.Spawn(lone, func() {
		for i := 0; i < parks; i++ {
			lone.Charge(time.Nanosecond)
			if !lone.Park(lone.Now().Add(time.Microsecond)) {
				t.Error("Park reported a stop")
				return
			}
		}
	})
	countSteps(lone, &steps)
	e.Run()
	if steps != 1 || lone.parks != parks {
		t.Errorf("a lone node parked %d times and was stepped %d times, want %d and 1", lone.parks, steps, parks)
	}
	if want := Time(parks * 1001); lone.Now() != want || e.Now() != want {
		t.Errorf("lone node at %v, engine at %v, want both %v", lone.Now(), e.Now(), want)
	}

	e = NewEngine(1)
	pong, ping := e.NewNode("pong"), e.NewNode("ping")
	var switches uint64
	const rounds = 50
	countSwitches(e, pong, &switches, func() {
		for pong.Park(Infinity) {
			e.At(pong.Now(), ping, nil)
		}
	})
	countSwitches(e, ping, &switches, func() {
		for i := 0; i < rounds; i++ {
			e.At(ping.Now(), pong, nil)
			ping.Park(Infinity)
		}
		e.Stop()
	})
	e.Run()
	// pong's last Park is resumed by the stop; ping ends without parking.
	if ping.parks != rounds || pong.parks != rounds+1 {
		t.Fatalf("ping parked %d times, pong %d, want %d and %d", ping.parks, pong.parks, rounds, rounds+1)
	}
	// Besides one switch per park: Run starts pong, and pong, finding
	// nothing to run after the stop, yields to Run, which releases it.
	if want := ping.parks + pong.parks + 3; switches != want {
		t.Errorf("%d baton switches for %d parks, want %d: one per park plus pong's start, stop and release",
			switches, ping.parks+pong.parks, want)
	}
}

// A Park that keeps the baton costs nothing on the heap: its deadline goes
// into a warmed event queue, and the event runs and the baton is granted
// again without a closure or a switch.
func TestParkKeepAllocs(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("n")
	var steps uint64
	avg := -1.0
	e.Spawn(n, func() {
		park := func() { n.Park(n.Now().Add(time.Microsecond)) }
		park()
		avg = testing.AllocsPerRun(1000, park)
	})
	countSteps(n, &steps)
	e.Run()
	if steps != 1 {
		t.Fatalf("the node was stepped %d times: its parks did not keep the baton", steps)
	}
	if avg != 0 {
		t.Errorf("a Park that keeps the baton allocates %v objects, want 0", avg)
	}
}

// A handoff down the chain of resumers, and one back up it, costs nothing on
// the heap: three nodes pass a wake-up round a ring, so each park either
// resumes the next node or unwinds to the one up the chain that is due.
func TestNestedHandoffAllocs(t *testing.T) {
	e := NewEngine(1)
	ring := []*Node{e.NewNode("r0"), e.NewNode("r1"), e.NewNode("r2")}
	var nested uint64
	for i, n := range ring[1:] {
		succ := ring[(i+2)%len(ring)]
		e.Spawn(n, func() {
			for n.Park(Infinity) {
				if n.resumer != nil {
					nested++
				}
				e.At(n.Now(), succ, nil)
			}
		})
	}
	r0, avg := ring[0], -1.0
	e.Spawn(r0, func() {
		r0.Yield() // r1 and r2 park first
		lap := func() {
			e.At(r0.Now(), ring[1], nil)
			if !r0.Park(Infinity) {
				t.Error("the ring stalled")
			}
		}
		lap()
		avg = testing.AllocsPerRun(1000, lap)
		e.Stop()
	})
	e.Run()
	if nested < 1000 {
		t.Fatalf("r1 and r2 were resumed by another node %d times in 1 001 laps: the handoffs did not nest", nested)
	}
	if avg != 0 {
		t.Errorf("a lap of three nested handoffs allocates %v objects, want 0", avg)
	}
}

// A node that dies two resumes deep — its main panics or calls Goexit, or an
// event inside its Park does — must not unwind the nodes that resumed it:
// every other node is released with Park reporting false, and Run re-raises
// the panic or ends its goroutine, as when Run itself had resumed the node.
func TestNestedDeathReachesRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		event bool // the death is an event run inside the dying node's Park
		die   func()
		want  any // what Run re-raises; nil for Goexit
	}{
		{"main-panic", false, func() { panic("boom") }, "boom"},
		{"main-goexit", false, runtime.Goexit, nil},
		{"event-panic", true, func() { panic("boom") }, "boom"},
		{"event-goexit", true, runtime.Goexit, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			a, b, d := e.NewNode("a"), e.NewNode("b"), e.NewNode("dying")
			parked := map[*Node]bool{}
			for _, n := range []*Node{a, b} {
				e.Spawn(n, func() {
					parked[n] = true
					for n.Park(Infinity) {
					}
					parked[n] = false
				})
			}
			deep := false
			e.Spawn(d, func() {
				// a resumed b, and b's Park resumed this node.
				deep = d.resumer == b && b.resumer == a
				d.Charge(time.Microsecond)
				if c.event {
					e.At(d.Now(), nil, c.die)
					if d.Yield() {
						t.Error("Park reported true after an event inside it died")
					}
					return
				}
				c.die()
			})
			var got any
			returned := false
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { got = recover() }()
				e.Run()
				returned = true
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Run hung after a nested node died")
			}
			if !deep {
				t.Fatal("the dying node was not two resumes deep")
			}
			if returned || got != c.want {
				t.Errorf("Run returned=%v recovered %v, want %v", returned, got, c.want)
			}
			for _, n := range []*Node{a, b} {
				if parked[n] || n.state != stateFinished {
					t.Errorf("%s not released through Park reporting false: still parked=%v, state %d", n.name, parked[n], n.state)
				}
			}
			if d.state != stateFinished || !d.Stopped() {
				t.Errorf("dying node in state %d, engine stopped=%v", d.state, d.Stopped())
			}
		})
	}
}

func TestYieldOrdersByClock(t *testing.T) {
	// A node that charged far ahead must let a lagging node catch up on
	// Yield.
	e := NewEngine(1)
	fast, slow := e.NewNode("fast"), e.NewNode("slow")
	var order []string
	e.Spawn(fast, func() {
		fast.Charge(10 * time.Microsecond)
		fast.Yield()
		order = append(order, "fast")
	})
	e.Spawn(slow, func() {
		slow.Charge(1 * time.Microsecond)
		order = append(order, "slow")
	})
	e.Run()
	if len(order) != 2 || order[0] != "slow" || order[1] != "fast" {
		t.Fatalf("order = %v, want [slow fast]", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var trace []Time
		rng := e.Rand()
		a, b := e.NewNode("a"), e.NewNode("b")
		e.Spawn(a, func() {
			for i := 0; i < 50; i++ {
				a.Charge(time.Duration(rng.Intn(1000)) * time.Nanosecond)
				e.At(a.Now().Add(time.Microsecond), b, nil)
				trace = append(trace, a.Now())
				if !a.Yield() {
					return
				}
			}
		})
		e.Spawn(b, func() {
			for i := 0; i < 50; i++ {
				if !b.Park(Infinity) {
					return
				}
				trace = append(trace, b.Now())
			}
		})
		e.Run()
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestRandDeterminismAndRange(t *testing.T) {
	r1, r2 := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	f := func(seed uint64, n uint16) bool {
		r := NewRand(seed)
		m := int(n%1000) + 1
		v := r.Intn(m)
		g := r.Float64()
		return v >= 0 && v < m && g >= 0 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func (h *eventHeap) pop() event { return h.take(h.first()) }

// Random interleaved pushes and pops must come out exactly as a sort by
// (at, seq) would give them, carrying their own payload, whichever of the
// heap and the lanes each event went to. Pushes mix what the lanes exist
// for (streams of now+constant with different constants) with what they
// must merely survive (scattered instants, ties, instants before a lane's
// newest). After every operation the layout's own invariants are checked:
// heap slots are a permutation of a slab no longer than the deepest queue,
// every lane is sorted with its cached tail right, and nothing popped is
// still referenced.
func TestEventHeapProperty(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRand(seed)
		var (
			h       eventHeap
			pending []event // reference: kept sorted by (at, seq)
			ran     uint64  // seq of the event whose fn ran last
			now     Time    // at of the last pop: the engine never schedules before it
			deepest int
			laned   bool
			target  = &Node{}
		)
		for op, seq := 0, uint64(0); op < 2500; op++ {
			if len(pending) == 0 || r.Intn(100) < 80-op/30 { // fills, then drains
				seq++
				ev := event{seq: seq}
				switch r.Intn(6) {
				case 0:
					ev.at = now // tie with whatever else is due now
				case 1, 2:
					ev.at = now + 1000 // one stream of now+constant
				case 3:
					ev.at = now + 3000 // another, ahead of it
				default:
					ev.at = now + Time(r.Intn(50))
				}
				if r.Intn(2) == 0 {
					ev.target = target
				}
				s := seq
				ev.fn = func() { ran = s }
				h.push(ev)
				i := sort.Search(len(pending), func(i int) bool {
					return pending[i].at > ev.at // seq only grows: after every equal at
				})
				pending = append(pending[:i], append([]event{ev}, pending[i:]...)...)
				deepest = max(deepest, len(pending))
			} else {
				want := pending[0]
				pending = pending[1:]
				if k, _ := h.first(); k.at != want.at || k.seq != want.seq {
					t.Fatalf("seed %d op %d: peek (%v, %d), want (%v, %d)", seed, op, k.at, k.seq, want.at, want.seq)
				}
				got := h.pop()
				if got.at != want.at || got.seq != want.seq || got.target != want.target {
					t.Fatalf("seed %d op %d: popped %+v, want %+v", seed, op, got, want)
				}
				if got.fn(); ran != want.seq {
					t.Fatalf("seed %d op %d: popped (%v, %d) with the closure of seq %d", seed, op, got.at, got.seq, ran)
				}
				now = got.at
			}
			if h.len() != len(pending) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, h.len(), len(pending))
			}
			if len(h.slab) != len(h.keys) || len(h.keys) > deepest {
				t.Fatalf("seed %d op %d: %d slots and %d keys for a deepest queue of %d", seed, op, len(h.slab), len(h.keys), deepest)
			}
			// Slots of keys are a permutation of the slab; those past the
			// heap are free and must have been cleared.
			seen := make([]bool, len(h.slab))
			for i, k := range h.keys {
				if seen[k.slot] {
					t.Fatalf("seed %d op %d: slot %d held twice", seed, op, k.slot)
				}
				seen[k.slot] = true
				if p := h.slab[k.slot]; (i >= h.n) != (p.fn == nil) || (i >= h.n && p.target != nil) {
					t.Fatalf("seed %d op %d: key %d of %d live: slot %d holds %+v", seed, op, i, h.n, k.slot, p)
				}
			}
			inLanes := 0
			for i := range h.lane {
				l := &h.lane[i]
				inLanes += l.Len()
				var tail Time
				for j := 0; j < len(l.buf); j++ {
					e := l.buf[l.index(j)]
					switch {
					case j >= l.Len():
						if e.fn != nil || e.target != nil || e.at != 0 || e.seq != 0 {
							t.Fatalf("seed %d op %d: lane %d keeps %+v past its %d events", seed, op, i, e, l.Len())
						}
					case j > 0 && !eventKey{at: tail}.before(eventKey{at: e.at, seq: 1}):
						t.Fatalf("seed %d op %d: lane %d out of order at %d: %v after %v", seed, op, i, j, e.at, tail)
					default:
						tail = e.at
					}
				}
				if h.tail[i] != tail {
					t.Fatalf("seed %d op %d: lane %d tail cached as %v, is %v", seed, op, i, h.tail[i], tail)
				}
			}
			if inLanes != h.laned {
				t.Fatalf("seed %d op %d: %d events in lanes, counted %d", seed, op, inLanes, h.laned)
			}
			laned = laned || inLanes > shallow
		}
		if !laned {
			t.Fatalf("seed %d: the lanes never held more than %d events: the script no longer reaches them", seed, shallow)
		}
	}
}

// A lane that held a deep stream and lost it gives most of its buffer back,
// so that streams moving between lanes do not leave every lane as large as
// the deepest stream ever was; lanes in steady use are left alone.
func TestEventLanesShrink(t *testing.T) {
	var h eventHeap
	seq := uint64(0)
	push := func(at Time) {
		seq++
		h.push(event{at: at, seq: seq})
	}
	for i := 0; i < 20_000; i++ {
		push(Time(1000 + i%2*5000 + i)) // two interleaved monotone streams
	}
	if h.n > shallow {
		t.Fatalf("%d of 20 000 events in two monotone streams went to the heap", h.n)
	}
	held := func() (c int) {
		for i := range h.lane {
			c += len(h.lane[i].buf)
		}
		return c
	}
	if c := held(); c > 2*20_000 {
		t.Fatalf("lanes hold %d slots for 20 000 events", c)
	}
	for h.len() > 100 {
		h.pop()
	}
	if c := held(); c > 100*3+lanes*shallow {
		t.Fatalf("lanes still hold %d slots for the last 100 of 20 000 events", c)
	}
	steady := held()
	for i := 0; i < 10_000; i++ {
		push(h.pop().at + 40_000)
	}
	if c := held(); c != steady {
		t.Fatalf("lanes went from %d to %d slots at a steady depth of 100", steady, c)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Errorf("wall clock went backwards: %v then %v", a, b)
	}
}
