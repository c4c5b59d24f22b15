package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The reference engine is the engine as it was before nodes became
// coroutines and the event queue stopped carrying pointers: a goroutine per
// node, two unbuffered channels for the baton, a binary heap of whole
// events, and every handoff through run. It exists so the equivalence test
// below can require that the rewrite changed no order and no clock.

type refNode struct {
	eng    *refEngine
	id     int
	state  nodeState
	clock  Time
	busy   time.Duration
	parks  uint64
	ranSeq uint64
	resume chan struct{}
}

type refEvent struct {
	at     Time
	seq    uint64
	target *refNode
	fn     func()
}

type refHeap struct{ ev []refEvent }

func (h *refHeap) less(i, j int) bool {
	if h.ev[i].at != h.ev[j].at {
		return h.ev[i].at < h.ev[j].at
	}
	return h.ev[i].seq < h.ev[j].seq
}

func (h *refHeap) push(e refEvent) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *refHeap) pop() refEvent {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev[last] = refEvent{}
	h.ev = h.ev[:last]
	n := len(h.ev)
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return top
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}

type refEngine struct {
	now           Time
	heap          refHeap
	seq           uint64
	nodes         []*refNode
	back          chan struct{}
	stopRequested bool
	stopped       bool
	runSeq        uint64
	eventsRun     uint64

	// The node run last, and how often run's loop stepped it again right
	// away: the schedules in which Engine.Park keeps the baton.
	last        *refNode
	selfResumes uint64
}

func (e *refEngine) newNode() *refNode {
	n := &refNode{eng: e, id: len(e.nodes), resume: make(chan struct{})}
	e.nodes = append(e.nodes, n)
	return n
}

func (e *refEngine) spawn(n *refNode, fn func()) {
	n.state = stateRunnable
	n.clock = e.now
	go func() {
		<-n.resume
		defer func() {
			n.state = stateFinished
			e.back <- struct{}{}
		}()
		fn()
	}()
}

func (e *refEngine) at(t Time, target *refNode, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.heap.push(refEvent{at: t, seq: e.seq, target: target, fn: fn})
}

func (e *refEngine) minRunnable() *refNode {
	var best *refNode
	for _, n := range e.nodes {
		if n.state != stateRunnable {
			continue
		}
		if best == nil || n.clock < best.clock ||
			(n.clock == best.clock && n.ranSeq < best.ranSeq) {
			best = n
		}
	}
	return best
}

func (e *refEngine) run() {
	defer e.shutdown() // also when an event panics or calls Goexit
	for !e.stopRequested {
		next := e.minRunnable()
		for len(e.heap.ev) > 0 && (next == nil || e.heap.ev[0].at <= next.clock) {
			ev := e.heap.pop()
			e.now = ev.at
			e.eventsRun++
			if ev.fn != nil {
				ev.fn()
			}
			if t := ev.target; t != nil && t.state == stateParked {
				t.state = stateRunnable
				if ev.at > t.clock {
					t.clock = ev.at
				}
			}
			if e.stopRequested {
				break
			}
			next = e.minRunnable()
		}
		if next == nil || e.stopRequested {
			break
		}
		if next == e.last {
			e.selfResumes++
		}
		e.last = next
		e.step(next)
	}
}

func (e *refEngine) shutdown() {
	e.stopped = true
	for {
		var parked *refNode
		for _, n := range e.nodes {
			if n.state == stateParked || n.state == stateRunnable {
				parked = n
				break
			}
		}
		if parked == nil {
			return
		}
		e.step(parked)
	}
}

func (e *refEngine) step(n *refNode) {
	e.runSeq++
	n.ranSeq = e.runSeq
	n.state = stateRunning
	n.resume <- struct{}{}
	<-e.back
}

func (n *refNode) charge(d time.Duration) {
	n.clock = n.clock.Add(d)
	n.busy += d
}

func (n *refNode) park(deadline Time) bool {
	if n.eng.stopped {
		return false
	}
	if deadline != Infinity {
		if deadline < n.clock {
			deadline = n.clock
		}
		n.eng.at(deadline, n, nil)
	}
	n.parks++
	n.state = stateParked
	n.eng.back <- struct{}{}
	<-n.resume
	return !n.eng.stopped
}

// world is what a script sees of an engine: nodes are named by index so one
// script drives either implementation. target -1 means no target.
type world interface {
	newNode() int
	newHost(cores int) []int
	spawn(node int, fn func())
	at(t Time, target int, fn func())
	stop()
	run()
	now() Time
	seq() uint64
	eventsRun() uint64
	pending() int
	nodes() int
	nested() bool // whether a node's Park resumed the node running now

	charge(node int, d time.Duration)
	park(node int, deadline Time) bool
	clock(node int) Time
	busy(node int) time.Duration
	parks(node int) uint64
}

type realWorld struct {
	e *Engine
	h *handoffs
}

// handoffs counts how the engine passed the baton between nodes: down, a
// parker resumed another node; up, a node yielded to the node that resumed
// it; depth, the longest chain of resumers a resume made.
type handoffs struct {
	down, up uint64
	depth    int
}

func (w realWorld) node(i int) *Node {
	if i < 0 {
		return nil
	}
	return w.e.nodes[i]
}
func (w realWorld) newNode() int { return w.e.NewNode("").id }
func (w realWorld) newHost(cores int) (ids []int) {
	for _, c := range w.e.NewHost("", cores).Cores() {
		ids = append(ids, c.id)
	}
	return ids
}
func (w realWorld) at(t Time, n int, fn func())    { w.e.At(t, w.node(n), fn) }
func (w realWorld) stop()                          { w.e.Stop() }
func (w realWorld) run()                           { w.e.Run() }
func (w realWorld) now() Time                      { return w.e.Now() }
func (w realWorld) seq() uint64                    { return w.e.seq }
func (w realWorld) eventsRun() uint64              { return w.e.EventsRun() }
func (w realWorld) pending() int                   { return w.e.heap.len() }
func (w realWorld) nodes() int                     { return len(w.e.nodes) }
func (w realWorld) charge(n int, d time.Duration)  { w.node(n).Charge(d) }
func (w realWorld) park(n int, deadline Time) bool { return w.node(n).Park(deadline) }
func (w realWorld) clock(n int) Time               { return w.node(n).Now() }
func (w realWorld) busy(n int) time.Duration       { return w.node(n).Busy() }
func (w realWorld) parks(n int) uint64             { return w.node(n).parks }

// spawn also counts the node's handoffs into w.h, through its next and yield.
func (w realWorld) spawn(i int, fn func()) {
	n := w.node(i)
	w.e.Spawn(n, func() {
		yield := n.yield
		n.yield = func(v struct{}) bool {
			if n.resumer != nil {
				w.h.up++
			}
			return yield(v)
		}
		fn()
	})
	next := n.next
	n.next = func() (struct{}, bool) {
		if n.resumer != nil {
			w.h.down++
			d := 0
			for m := n; m.resumer != nil; m = m.resumer {
				d++
			}
			w.h.depth = max(w.h.depth, d)
		}
		return next()
	}
}

func (w realWorld) nested() bool {
	for _, n := range w.e.nodes {
		if n.waiting {
			return true
		}
	}
	return false
}

type refWorld struct{ e *refEngine }

func (w refWorld) node(i int) *refNode {
	if i < 0 {
		return nil
	}
	return w.e.nodes[i]
}
func (w refWorld) newNode() int { return w.e.newNode().id }
func (w refWorld) newHost(cores int) (ids []int) {
	for i := 0; i < cores; i++ {
		ids = append(ids, w.newNode())
	}
	return ids
}
func (w refWorld) spawn(n int, fn func())         { w.e.spawn(w.node(n), fn) }
func (w refWorld) at(t Time, n int, fn func())    { w.e.at(t, w.node(n), fn) }
func (w refWorld) stop()                          { w.e.stopRequested = true }
func (w refWorld) run()                           { w.e.run() }
func (w refWorld) now() Time                      { return w.e.now }
func (w refWorld) seq() uint64                    { return w.e.seq }
func (w refWorld) eventsRun() uint64              { return w.e.eventsRun }
func (w refWorld) pending() int                   { return len(w.e.heap.ev) }
func (w refWorld) nodes() int                     { return len(w.e.nodes) }
func (w refWorld) nested() bool                   { return false }
func (w refWorld) charge(n int, d time.Duration)  { w.node(n).charge(d) }
func (w refWorld) park(n int, deadline Time) bool { return w.node(n).park(deadline) }
func (w refWorld) clock(n int) Time               { return w.node(n).clock }
func (w refWorld) busy(n int) time.Duration       { return w.node(n).busy }
func (w refWorld) parks(n int) uint64             { return w.node(n).parks }

// traceEntry is one observation a script makes: who ran (a node index, or
// -1 for an event), its clock, and how many events had been scheduled.
type traceEntry struct {
	who   int
	clock Time
	seq   uint64
}

// script is one seeded random scenario. Every actor draws from its own
// stream, so what an actor does depends only on the order in which the
// engine ran it — which is what the trace then exposes.
type script struct {
	w       world
	seed    uint64
	trace   []traceEntry
	spawned int // nodes created from inside the simulation
	deepest int // most events pending at the end of a storm

	fatal       *fatal
	goexited    bool // the fatal event called Goexit
	nestedFatal bool // it ran while a node's Park had resumed another node
}

// fatal names the step at which a node schedules an event, due at its own
// clock, that panics or calls runtime.Goexit. The event runs inside that
// node's Park or another's, often one a third node resumed, and ends the run.
type fatal struct {
	node, step int
	goexit     bool
}

const maxInsideSpawns = 6

func (s *script) note(who int, clock Time) {
	s.trace = append(s.trace, traceEntry{who, clock, s.w.seq()})
}

// noted records n's clock after an operation and reports whether n's main
// goes on. Once the fatal event has called Goexit, released nodes return
// without a note: Engine ends the node whose Park ran the event without
// returning from it, which the reference, running events on its own
// goroutine, cannot tell apart from the nodes it releases.
func (s *script) noted(n int, ok bool) bool {
	if !ok && s.goexited {
		return false
	}
	s.note(n, s.w.clock(n))
	return ok
}

// maybeFatal schedules the fatal event if n is at its step.
func (s *script) maybeFatal(n, step int) {
	f, w := s.fatal, s.w
	if f == nil || f.node != n || f.step != step {
		return
	}
	w.at(w.clock(n), -1, func() {
		s.note(-1, w.now())
		s.nestedFatal = w.nested()
		if f.goexit {
			s.goexited = true
			runtime.Goexit()
		}
		panic("fatal event")
	})
}

func (s *script) rng(actor uint64) *Rand { return NewRand(s.seed*1_000_003 + actor) }

// target picks a node index or -1.
func (s *script) target(r *Rand) int { return r.Intn(s.w.nodes()+1) - 1 }

// event returns the body of an event: it records itself and, while depth
// lasts, schedules follow-ups — ties at the current instant, instants in
// the past (clamped), wakeups — and now and then spawns a node or stops.
func (s *script) event(id uint64, depth int) func() {
	return func() {
		w := s.w
		s.note(-1, w.now())
		if depth == 0 {
			return
		}
		r := s.rng(id)
		for i := r.Intn(3); i > 0; i-- {
			var t Time
			switch r.Intn(4) {
			case 0:
				t = w.now() // same-instant tie
			case 1:
				t = w.now() - Time(r.Intn(500)) // clamped to now
			default:
				t = w.now().Add(time.Duration(r.Intn(3000)))
			}
			var fn func()
			if r.Intn(3) > 0 {
				fn = s.event(id*31+uint64(i), depth-1)
			}
			w.at(t, s.target(r), fn)
		}
		switch r.Intn(400) {
		case 0:
			w.stop()
		case 1, 2, 3, 4, 5, 6, 7, 8:
			s.spawnInside(id)
		}
	}
}

func (s *script) spawnInside(by uint64) {
	if s.spawned == maxInsideSpawns {
		return
	}
	s.spawned++
	n := s.w.newNode()
	s.w.spawn(n, s.main(n, 20+int(by%20)))
}

// main returns a node's program: steps random operations, unwinding as
// soon as a Park reports the engine stopping.
func (s *script) main(n, steps int) func() {
	return func() {
		w := s.w
		r := s.rng(uint64(n) + 1<<32)
		for i := 0; i < steps; i++ {
			s.maybeFatal(n, i)
			ok := true
			switch r.Intn(14) {
			case 10:
				s.storm(n, i, r)
				ok = w.park(n, w.clock(n).Add(100*time.Microsecond)) // past every timer: the lanes drain empty and start over
			case 0, 1:
				w.charge(n, time.Duration(r.Intn(2000)))
			case 2:
				ok = w.park(n, Infinity)
			case 3:
				ok = w.park(n, w.clock(n).Add(time.Duration(r.Intn(5000))))
			case 4:
				ok = w.park(n, w.clock(n)-Time(r.Intn(1000))) // deadline in the past
			case 5:
				ok = w.park(n, w.clock(n)) // Yield
			case 6, 7:
				// At from a node: its clock may be ahead of or (after a
				// stale wake) equal to the engine's; t < now is clamped.
				t := w.clock(n).Add(time.Duration(r.Intn(4000)) - 1000)
				var fn func()
				if r.Intn(2) == 0 {
					fn = s.event(uint64(n)<<20+uint64(i), 2)
				}
				w.at(t, s.target(r), fn)
			case 8:
				// Wake a peer after a round trip, the shape of a request.
				w.charge(n, time.Duration(r.Intn(300)))
				w.at(w.clock(n).Add(time.Microsecond), s.target(r), nil)
				ok = w.park(n, Infinity)
			case 9:
				switch r.Intn(100) {
				case 0:
					w.stop()
				case 1, 2, 3, 4, 5, 6:
					s.spawnInside(uint64(n))
				}
			case 11:
				// At to itself, then park until it (or anything earlier)
				// wakes the node.
				var fn func()
				if r.Intn(2) == 0 {
					fn = s.event(uint64(n)<<20+uint64(i)+1<<40, 1)
				}
				w.at(w.clock(n).Add(time.Duration(r.Intn(500))), n, fn)
				ok = w.park(n, Infinity)
			case 12:
				// A deadline one nanosecond out: before every other event
				// unless one ties with it.
				ok = w.park(n, w.clock(n)+1)
			case 13:
				// Stop or Spawn from an event due at the node's own clock,
				// which runs inside this Park unless a node behind it runs
				// first.
				stop, by := r.Intn(50) == 0, uint64(n)<<20+uint64(i)
				w.at(w.clock(n), -1, func() {
					s.note(-1, w.now())
					if stop {
						w.stop()
					} else {
						s.spawnInside(by)
					}
				})
				ok = w.park(n, w.clock(n)+Time(r.Intn(3)))
			}
			if !s.noted(n, ok) {
				return
			}
		}
	}
}

// core returns the program of one virtual CPU of a host. The host's cores
// draw identical streams, so they charge alike and their clocks tie at
// every park; the least-recently-run rule alone decides which of them runs.
func (s *script) core(n int, host uint64, steps int) func() {
	return func() {
		w := s.w
		r := s.rng(host + 2<<32)
		for i := 0; i < steps; i++ {
			w.charge(n, time.Duration(r.Intn(4))*250)
			var ok bool
			if r.Intn(4) == 0 {
				w.at(w.clock(n), n, nil) // wake itself, tied with its siblings
				ok = w.park(n, Infinity)
			} else {
				ok = w.park(n, w.clock(n)) // Yield
			}
			if !s.noted(n, ok) {
				return
			}
		}
	}
}

// ring returns the program of one member of a ring of nodes that pass a
// wake-up round: each parks until woken, wakes its successor and parks
// again. So each handoff resumes the next member from the parker's Park,
// and the one that closes a lap finds a member several levels up the chain.
// Member 0 starts the round once the others have parked. A member's main
// returns after its laps, usually while another member has resumed it; now
// and then one spawns a node or stops the engine.
func (s *script) ring(members []int, i, laps int) func() {
	return func() {
		w := s.w
		n, succ := members[i], members[(i+1)%len(members)]
		r := s.rng(uint64(n) + 3<<32)
		if i == 0 && !s.noted(n, w.park(n, w.clock(n))) {
			return
		}
		for lap := 0; lap < laps; lap++ {
			s.maybeFatal(n, lap)
			if (i > 0 || lap > 0) && !s.noted(n, w.park(n, Infinity)) {
				return
			}
			w.charge(n, time.Duration(r.Intn(300)))
			var delay time.Duration
			if r.Intn(4) == 0 {
				delay = time.Duration(r.Intn(500))
			}
			w.at(w.clock(n).Add(delay), succ, nil)
			switch r.Intn(150) {
			case 0:
				w.stop()
			case 1, 2, 3:
				s.spawnInside(uint64(n))
			}
		}
	}
}

// storm is the shape the event queue's lanes exist for, deep enough to
// engage them: a burst of now+constant timers with one of three constants
// (several nodes storm at once, and a node's clock runs ahead of the
// engine's, so the streams interleave out of order), near events among
// them, ties with a timer just armed, and finally ties with timers armed
// long before — instants behind every lane's newest, which only the heap
// can take while their twins sit in a lane.
func (s *script) storm(n, step int, r *Rand) {
	w := s.w
	id := uint64(n)<<24 + uint64(step)<<12
	far := time.Duration(20+15*r.Intn(3)) * time.Microsecond
	var armed []Time
	for j := 80 + r.Intn(120); j > 0; j-- {
		id++
		w.charge(n, time.Duration(r.Intn(40)))
		at := w.clock(n).Add(far)
		w.at(at, s.target(r), s.event(id, 0))
		armed = append(armed, at)
		switch r.Intn(4) {
		case 0:
			w.at(w.clock(n).Add(time.Duration(r.Intn(300))), s.target(r), s.event(id<<8, 1))
		case 1:
			w.at(at, -1, s.event(id<<8+1, 0))
		}
	}
	for j := len(armed) - 1; j > 0; j -= 1 + r.Intn(len(armed)/6) {
		w.at(armed[j], s.target(r), s.event(id<<8+uint64(j), 0))
	}
	s.deepest = max(s.deepest, w.pending())
}

type outcome struct {
	end       string // how run ended: returned, panicked or Goexit
	trace     []traceEntry
	now       Time
	eventsRun uint64
	clocks    []Time
	busy      []time.Duration
	parks     []uint64
	deepest   int

	nestedFatal bool
}

func runScript(w world, seed uint64) outcome {
	s := &script{w: w, seed: seed}
	r := s.rng(0)
	for i, n := 0, 2+r.Intn(15); i < n; i++ {
		w.newNode()
	}
	for n := 0; n < w.nodes(); n++ {
		if n > 0 && r.Intn(8) == 0 {
			continue // a passive node: an event target with no main
		}
		w.spawn(n, s.main(n, 10+r.Intn(60)))
	}
	if r.Intn(3) == 0 {
		host, steps := uint64(w.nodes()), 10+r.Intn(40)
		for _, n := range w.newHost(2 + r.Intn(3)) {
			w.spawn(n, s.core(n, host, steps))
		}
	}
	if r.Intn(2) == 0 {
		members := make([]int, 3+r.Intn(14))
		for i := range members {
			members[i] = w.newNode()
		}
		laps := 5 + r.Intn(30)
		for i, n := range members {
			w.spawn(n, s.ring(members, i, laps))
		}
	}
	for i := r.Intn(8); i > 0; i-- {
		w.at(Time(r.Intn(20000)), s.target(r), s.event(uint64(i), 3))
	}
	if r.Intn(4) == 0 {
		w.at(Time(r.Intn(60000)), -1, w.stop) // Stop mid-run
	}
	if r.Intn(5) == 0 {
		s.fatal = &fatal{node: r.Intn(w.nodes()), step: r.Intn(8), goexit: r.Intn(2) == 0}
	}
	out := outcome{end: ended(w.run)}
	out.trace, out.now, out.eventsRun, out.deepest = s.trace, w.now(), w.eventsRun(), s.deepest
	out.nestedFatal = s.nestedFatal
	for n := 0; n < w.nodes(); n++ {
		out.clocks = append(out.clocks, w.clock(n))
		out.busy = append(out.busy, w.busy(n))
		out.parks = append(out.parks, w.parks(n))
	}
	return out
}

// ended calls run on a goroutine of its own and reports how it ended.
func ended(run func()) string {
	how := make(chan string)
	go func() {
		end := "Goexit"
		defer func() {
			if p := recover(); p != nil {
				end = fmt.Sprint("panicked: ", p)
			}
			how <- end
		}()
		run()
		end = "returned"
	}()
	return <-how
}

func TestEngineMatchesReference(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 200
	}
	var entries, events, parks, selfResumes uint64
	var deepest, panics, goexits, nestedFatal int
	var h handoffs
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		ref := &refEngine{back: make(chan struct{})}
		want := runScript(refWorld{ref}, seed)
		got := runScript(realWorld{NewEngine(seed), &h}, seed)
		if got.end != want.end {
			t.Fatalf("seed %d: Run %s, reference %s", seed, got.end, want.end)
		}
		if len(got.trace) != len(want.trace) {
			t.Fatalf("seed %d: trace has %d entries, reference %d", seed, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: trace diverges at %d: %+v, reference %+v", seed, i, got.trace[i], want.trace[i])
			}
		}
		if got.now != want.now || got.eventsRun != want.eventsRun {
			t.Fatalf("seed %d: now %v events %d, reference now %v events %d",
				seed, got.now, got.eventsRun, want.now, want.eventsRun)
		}
		if a, b := fmt.Sprint(got.clocks, got.busy, got.parks), fmt.Sprint(want.clocks, want.busy, want.parks); a != b {
			t.Fatalf("seed %d: per-node clocks/busy/parks\n got %s\nwant %s", seed, a, b)
		}
		if got.deepest != want.deepest {
			t.Fatalf("seed %d: %d events pending after the deepest storm, reference %d", seed, got.deepest, want.deepest)
		}
		entries += uint64(len(want.trace))
		events += want.eventsRun
		deepest = max(deepest, want.deepest)
		for _, n := range want.parks {
			parks += n
		}
		selfResumes += ref.selfResumes
		switch want.end {
		case "returned":
		case "Goexit":
			goexits++
		default:
			panics++
		}
		if got.nestedFatal {
			nestedFatal++
		}
	}
	// Guard against a script generator that quietly stopped exercising
	// anything: the seeds must add up to real work, and both kinds of
	// schedule after a park — the parker runs next (Engine.Park keeps the
	// baton) and another node does — must be common.
	if entries < uint64(seeds)*100 || events < uint64(seeds)*50 {
		t.Fatalf("scripts too thin: %d trace entries, %d events over %d seeds", entries, events, seeds)
	}
	if selfResumes < parks/5 || parks-selfResumes < parks/5 {
		t.Fatalf("of %d parks %d were followed by the parker itself: one kind of schedule is barely exercised", parks, selfResumes)
	}
	// Of the parks handed to another node, many must go down the chain (the
	// parker resumes the node) and many back up it (the node found is up
	// the chain), some over many levels; and fatal events must end runs,
	// some inside a Park that another node's Park had resumed.
	handed := parks - selfResumes
	if h.down < handed/2 || h.up < handed/2 || h.depth < 8 {
		t.Fatalf("of %d parks handed on, %d resumed the node down the chain and %d unwound; deepest chain %d",
			handed, h.down, h.up, h.depth)
	}
	if panics < seeds/50 || goexits < seeds/50 || nestedFatal < seeds/50 {
		t.Fatalf("of %d runs %d ended in a panic and %d in Goexit, %d of them inside a nested Park", seeds, panics, goexits, nestedFatal)
	}
	if deepest < 8*shallow {
		t.Fatalf("storms too thin: at most %d events pending, and the lanes engage at %d", deepest, shallow)
	}
}
