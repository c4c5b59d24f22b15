package sim

import "time"

// nodeState tracks where a node is in its lifecycle. Transitions are driven
// entirely by the engine loop and the node's own Park calls, under the
// baton discipline (exactly one of {engine, some node} executes at a time),
// so no locking is needed.
type nodeState int

const (
	stateNew nodeState = iota
	stateRunnable
	stateRunning
	stateParked
	stateFinished
)

// A Node is a simulated host (or an isolated CPU core of one). Application
// and library-OS code runs on the node's goroutine in ordinary blocking Go
// style; the node's virtual clock advances only through explicit Charge
// calls and Park waits. A node is also a Clock.
type Node struct {
	eng  *Engine
	id   int
	name string

	state  nodeState
	clock  Time          // local virtual time; >= engine.now whenever runnable
	busy   time.Duration // total charged CPU time
	parks  uint64        // number of Park calls (idle transitions)
	ranSeq uint64        // engine.runSeq at last baton grant (round-robin ties)

	// The baton, set by Spawn: the engine calls next to run the node's main
	// until it parks or returns; the main calls yield to park.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// The chain of nodes resuming nodes: the node whose Park resumed this
	// one (nil when Run did), and whether this one's Park is itself
	// suspended resuming another.
	resumer *Node
	waiting bool
}

// Name returns the node's diagnostic name.
func (n *Node) Name() string { return n.name }

// Engine returns the engine this node belongs to.
func (n *Node) Engine() *Engine { return n.eng }

// WakeAt runs fn, which may be nil, on this node at t, waking it if it is
// parked: the timer a library OS is handed at construction.
func (n *Node) WakeAt(t Time, fn func()) { n.eng.At(t, n, fn) }

// Now implements Clock: the node's local virtual time.
func (n *Node) Now() Time { return n.clock }

// Busy returns the total virtual CPU time this node has charged.
func (n *Node) Busy() time.Duration { return n.busy }

// Charge advances the node's local clock by d, modelling CPU work. It must
// be called only from the node's own goroutine while running.
func (n *Node) Charge(d time.Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	n.clock = n.clock.Add(d)
	n.busy += d
}

// Park blocks the node until some event wakes it or the deadline passes,
// whichever is first. Pass Infinity for no deadline. Wakeups may be
// spurious: callers re-check their condition and park again. Park reports
// false when the engine is stopping, in which case the caller must unwind
// promptly (no further Park will block).
//
// The events due before the next node runs execute inside Park, on this
// node's coroutine, and Park passes the baton on itself with one coroutine
// switch: a node that is itself the next to run keeps it, one suspended in
// Park is resumed from here, and for one up the chain of resumers, or none,
// this node yields one level up. An event that panics does not unwind this
// node: the panic surfaces from Run once every node is released, as it
// would from an event Run executes. An event that calls runtime.Goexit
// (t.Fatal) ends this node's coroutine and then the goroutine that called
// Run, as a node's main that calls it does.
func (n *Node) Park(deadline Time) bool {
	e := n.eng
	if e.stopped {
		return false
	}
	if deadline != Infinity {
		if deadline < n.clock {
			deadline = n.clock
		}
		e.At(deadline, n, nil)
	}
	n.parks++
	n.state = stateParked
	next := e.advanceParked()
	for next != n {
		if next == nil || next.waiting {
			e.chosen = next
			n.yield(struct{}{})
			return !e.stopped
		}
		next = e.resume(n, next)
	}
	e.grant(n)
	return true
}

// Yield parks until the engine has processed every event up to the node's
// current clock, giving other nodes with earlier clocks a chance to run.
// It reports false when the engine is stopping.
func (n *Node) Yield() bool { return n.Park(n.clock) }

// Stopped reports whether the engine is shutting down.
func (n *Node) Stopped() bool { return n.eng.stopped }
