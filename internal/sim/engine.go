// iter.Pull needs Go 1.23. Both go.mod files stay at go 1.22 because the
// benchmark module builds against this one and must not change in a PR that
// claims a gain (raising only the root directive fails its build with
// "updates to go.mod needed"); the next benchmark PR should raise both
// together and drop this tag. There is deliberately no !go1.23 fallback.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Engine is the discrete-event simulator. It owns the global event heap and
// coordinates node execution with a baton: advance processes the earliest
// pending events until the runnable node with the smallest local clock is
// due, and that node runs until it parks. Each node's main runs as a
// runtime coroutine (iter.Pull). A parking node runs advance itself, on its
// own coroutine, and hands the baton on with one coroutine switch: it keeps
// it when the node found is the parker, resumes the node found when that
// node is suspended in Park, and otherwise yields to whoever resumed it.
// Nodes resuming nodes form a chain from Run, at most one entry per node;
// a yield goes one level up it, towards the node found or, when there is
// none, to Run. Because exactly one of {Run, a single node} executes at any
// time, the engine state needs no locks; the coroutine switches provide the
// happens-before edges.
//
// Causality invariant: every runnable node's clock is >= the engine's
// current time, and events are executed in nondecreasing (time, seq) order,
// so a node can never observe an effect from its future.
type Engine struct {
	now   Time
	heap  eventHeap
	seq   uint64
	nodes []*Node
	rng   *Rand

	stopRequested bool
	stopped       bool
	runSeq        uint64 // ticks once per baton grant (round-robin ties)

	// What the last node to yield from Park found runs next, and a panic
	// an event raised inside that Park; Run steps the one and re-raises the
	// other. dying is a node whose main panicked or called Goexit while
	// another node had resumed it; it waits mid-unwind for Run to resume it.
	chosen    *Node
	parkPanic any
	dying     *Node

	eventsRun uint64
}

// NewEngine returns an engine with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the engine's global virtual time: the timestamp of the last
// processed event. Running nodes may be ahead of it.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root random stream. Subsystems should Fork it.
func (e *Engine) Rand() *Rand { return e.rng }

// EventsRun returns the number of events processed so far.
func (e *Engine) EventsRun() uint64 { return e.eventsRun }

// NewNode creates a simulated host with the given diagnostic name. Nodes
// with no Spawned main still work as passive event targets (their devices
// can be driven by events), but most nodes get a main via Spawn.
func (e *Engine) NewNode(name string) *Node {
	n := &Node{eng: e, id: len(e.nodes), name: name}
	e.nodes = append(e.nodes, n)
	return n
}

// Spawn registers fn as the node's application main. The node becomes
// runnable at the engine's current time. Spawn must be called before Run or
// from inside the simulation (an event or another node).
//
// fn runs only while Run holds the baton. If fn panics, the node is marked
// finished and the panic surfaces from Run on the goroutine that called it,
// where it can be recovered; if fn calls runtime.Goexit (e.g. t.Fatal inside
// a node's main), that goroutine exits instead. Either way Run first
// releases every other parked node, as it does on an ordinary return.
func (e *Engine) Spawn(n *Node, fn func()) {
	if n.state != stateNew {
		panic(fmt.Sprintf("sim: node %q spawned twice", n.name))
	}
	n.state = stateRunnable
	n.clock = e.now
	n.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		n.yield = yield
		returned := false
		defer func() {
			n.state = stateFinished
			if !returned && n.resumer != nil {
				// Unwinding further would unwind the node that resumed
				// this one: let Run resume it to finish the panic or Goexit.
				e.dying = n
				n.yield(struct{}{})
			}
		}()
		fn()
		returned = true
	})
}

// At schedules fn to run at virtual time t. After fn runs, target (if
// non-nil and parked) is woken with its clock advanced to at least t.
// fn may be nil (pure wakeup). At may be called from the engine loop, an
// event, or the currently running node; t is clamped to the caller's
// present to preserve causality.
func (e *Engine) At(t Time, target *Node, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, target: target, fn: fn})
}

// Stop requests a graceful shutdown: once the current node parks, the
// engine stops processing events and unparks every node with a false Park
// result so application code can unwind.
func (e *Engine) Stop() { e.stopRequested = true }

// minRunnable returns the runnable node with the smallest clock, breaking
// clock ties by least-recently-run (then id). The tie-break makes
// equal-clock nodes — the virtual CPUs of one multi-core host — take the
// baton round-robin instead of lowest-id-first, while staying fully
// deterministic.
func (e *Engine) minRunnable() *Node {
	var best *Node
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

// Run executes the simulation until it quiesces (no pending events and no
// runnable node) or Stop is requested. It then releases every parked node.
func (e *Engine) Run() {
	defer e.shutdown() // also when a node's main panics or exits the goroutine
	n := e.advance()
	for n != nil {
		e.step(n)
		if d := e.dying; d != nil {
			e.dying = nil
			d.next() // re-raises its panic or exits this goroutine
		}
		if n.state == stateFinished {
			n = e.advance()
		} else {
			n = e.chosen // n parked, and its Park ran advance
		}
	}
	if p := e.parkPanic; p != nil {
		e.parkPanic = nil
		e.shutdown() // as when an event panics in Run's own advance
		panic(p)
	}
}

// advance processes every event at or before the next runnable node's clock
// and returns that node, the one to run next. With no runnable node it
// drains events until one wakes somebody. It returns nil when the engine is
// quiescent or a stop was requested.
func (e *Engine) advance() *Node {
	if e.stopRequested {
		return nil
	}
	next := e.minRunnable()
	for e.heap.len() > 0 {
		top, lane := e.heap.first()
		if next != nil && top.at > next.clock {
			break
		}
		ev := e.heap.take(top, lane)
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
			return nil
		}
		next = e.minRunnable()
	}
	return next
}

// advanceParked is advance run by a parking node. A panic raised by an
// event is kept for Run, which re-raises it once every node is released,
// and nothing is found to run: the parker yields to Run like any other.
func (e *Engine) advanceParked() (next *Node) {
	defer func() {
		if p := recover(); p != nil {
			e.parkPanic, next = p, nil
		}
	}()
	return e.advance()
}

// grant gives n the baton.
func (e *Engine) grant(n *Node) {
	e.runSeq++
	n.ranSeq = e.runSeq
	n.state = stateRunning
}

// step hands the baton to n and waits until it parks or finishes.
func (e *Engine) step(n *Node) {
	e.grant(n)
	n.next()
}

// resume hands the baton from the parking node by to n, which is suspended
// in Park or not yet started, and returns the node to run once control comes
// back: what the chain below found, or what advance finds if n's main
// returned. It returns nil while a node below is dying.
func (e *Engine) resume(by, n *Node) *Node {
	e.grant(n)
	n.resumer, by.waiting = by, true
	n.next()
	n.resumer, by.waiting = nil, false
	switch {
	case e.dying != nil:
		return nil
	case n.state == stateFinished:
		return e.advanceParked()
	}
	return e.chosen
}

// shutdown marks the engine stopped and unblocks every parked node so its
// main can observe the stop and return.
func (e *Engine) shutdown() {
	e.stopped = true
	for {
		var parked *Node
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
