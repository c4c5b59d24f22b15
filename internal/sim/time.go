// Package sim provides a deterministic discrete-event simulation engine
// with virtual time. It is the substrate under every Demikernel-Go
// experiment: simulated hosts ("nodes") run real application and library-OS
// code, charge virtual CPU time for the work they do, and exchange I/O
// through events (packet deliveries, disk completions, timers) ordered on a
// single global event heap.
//
// The engine is cooperative: at most one node executes at any instant, and
// control passes between nodes and the engine by explicit parking, so every
// run with the same seed and inputs is bit-for-bit reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to the wall clock.
type Time int64

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Infinity is a sentinel Time later than any reachable simulation instant.
const Infinity Time = 1<<63 - 1

// Add returns t advanced by d. Adding to Infinity saturates.
func (t Time) Add(d time.Duration) Time {
	if t == Infinity {
		return Infinity
	}
	return t + Time(d)
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the instant as a duration offset, e.g. "1.5ms".
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return fmt.Sprintf("%v", time.Duration(t))
}

// A Clock tells virtual (or real) time. Nodes are Clocks; so is WallClock.
// Protocol stacks take a Clock so they are deterministic under simulation
// and still usable on the real OS.
type Clock interface {
	Now() Time
}

// WallClock adapts the operating system clock to the Clock interface, for
// library OSes that run on the real OS (Catnap).
type WallClock struct{ base time.Time }

// NewWallClock returns a Clock reading zero at the moment of creation.
func NewWallClock() *WallClock { return &WallClock{base: time.Now()} }

// Now implements Clock.
func (w *WallClock) Now() Time { return Time(time.Since(w.base)) }
