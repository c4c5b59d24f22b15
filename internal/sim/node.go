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
}

// Name returns the node's diagnostic name.
func (n *Node) Name() string { return n.name }

// Engine returns the engine this node belongs to.
func (n *Node) Engine() *Engine { return n.eng }

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
// node's coroutine, so a node that is itself the next to run keeps the
// baton without a coroutine switch. An event that panics does not unwind
// this node: the panic surfaces from Run once every node is released, as
// it would from an event Run executes. An event that calls runtime.Goexit
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
	if next == n {
		e.grant(n)
		return true
	}
	e.chosen = next
	n.yield(struct{}{})
	return !e.stopped
}

// Yield parks until the engine has processed every event up to the node's
// current clock, giving other nodes with earlier clocks a chance to run.
// It reports false when the engine is stopping.
func (n *Node) Yield() bool { return n.Park(n.clock) }

// Stopped reports whether the engine is shutting down.
func (n *Node) Stopped() bool { return n.eng.stopped }
