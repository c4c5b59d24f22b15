package core

import (
	"time"

	"demikernel/internal/sim"
)

// Waiter implements the PDPIX wait family over a token table and a Runner.
// This is the heart of Demikernel's cooperative execution: Wait does not
// sleep in a kernel — it *is* the scheduler loop, running application
// coroutines, background protocol work and the device fast path until the
// awaited token completes (paper §5.2's run-to-completion flow).
type Waiter struct {
	Table  *TokenTable
	Runner Runner
	// Tenant is the principal redeeming through this waiter. Every
	// redemption goes through TryTakeAs, so a token minted for another
	// tenant fails with ErrBadQToken without consuming the victim's op.
	// The zero value is the host tenant, which redeems only host-minted
	// tokens — tenancy is strict equality, never a wildcard.
	Tenant uint32
	// OnEnter runs once per wait call, after the deadline is fixed; OnWake
	// runs after every Block that returned true. A front end behind a
	// kernel (FrontEnd.BehindKernel) charges the kernel's wait and wakeup
	// there; on any other they are nil.
	OnEnter, OnWake func()
	// rr rotates WaitAny's scan start across calls so a busy low-index
	// token cannot starve the rest. A server holding one pop per
	// connection in a single wait set would otherwise serve only the
	// first connection whenever its next request arrives before the
	// rescan — which is every time, for a closed-loop peer whose request
	// piggybacks the ack that completes the server's reply push.
	rr int
}

// Wait blocks until qt completes and returns its event.
func (w *Waiter) Wait(qt QToken) (QEvent, error) {
	one := [1]QToken{qt}
	_, ev, err := w.WaitAny(one[:], -1)
	return ev, err
}

// WaitAny blocks until one of qts completes, returning its index and event.
// A negative timeout waits forever. Unlike epoll, exactly one completion is
// consumed per call, so each worker waiting on its own tokens wakes alone
// (no thundering herd; paper §3.3).
//
// The tokens are scanned once at entry — which is where an unknown, redeemed
// or foreign token fails and an already complete one is taken — and after
// that only when an operation has completed since the last scan: a token
// found outstanding stays so until then, so the work of a wait follows
// completions, not the size of the wait set. A scan reads only the slots
// (TokenTable.probe) and redeems the one token it stops at.
func (w *Waiter) WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error) {
	deadline := w.enter(timeout)
	for {
		seen := w.Table.completions
		if i := w.Table.probe(qts, w.rr, w.Tenant); i >= 0 {
			ev, done, err := w.Table.TryTakeAs(qts[i], w.Tenant)
			if err != nil {
				return -1, QEvent{}, err
			}
			if done {
				if len(qts) > 1 {
					// Single-token Waits (e.g. a nested wait on a
					// reply push) must not perturb the rotation.
					w.rr = i + 1 // next scan starts past this token
				}
				return i, ev, nil
			}
		}
		if err := w.run(seen, deadline); err != nil {
			return -1, QEvent{}, err
		}
	}
}

// WaitAll blocks until every token completes, returning events in token
// order. On timeout, completed events consumed so far are returned with
// ErrTimeout.
func (w *Waiter) WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error) {
	deadline := w.enter(timeout)
	events := make([]QEvent, len(qts))
	got := make([]bool, len(qts))
	remaining := len(qts)
	for {
		seen := w.Table.completions
		// A token already redeemed here is stale, so the probe stops at
		// it too; got tells it apart from one that fails.
		for i := 0; i < len(qts); i++ {
			k := w.Table.probe(qts[i:], 0, w.Tenant)
			if k < 0 {
				break
			}
			i += k
			if got[i] {
				continue
			}
			ev, done, err := w.Table.TryTakeAs(qts[i], w.Tenant)
			if err != nil {
				return events, err
			}
			if done {
				events[i], got[i] = ev, true
				remaining--
			}
		}
		if remaining == 0 {
			return events, nil
		}
		if err := w.run(seen, deadline); err != nil {
			return events, err
		}
	}
}

// enter fixes a wait call's deadline.
func (w *Waiter) enter(timeout time.Duration) sim.Time {
	deadline := sim.Infinity
	if timeout >= 0 {
		deadline = w.Runner.Now().Add(timeout)
	}
	if w.OnEnter != nil {
		w.OnEnter()
	}
	return deadline
}

// run drives the Runner after a scan that found nothing ready — Step while
// anything is runnable, Block when nothing is — until the completion count
// moves past seen, the one thing that can make the next scan differ.
func (w *Waiter) run(seen uint64, deadline sim.Time) error {
	for {
		if !w.Runner.Step() {
			if w.Runner.Now() >= deadline {
				return ErrTimeout
			}
			if !w.Runner.Block(deadline) {
				return ErrStopped
			}
			if w.OnWake != nil {
				w.OnWake()
			}
		}
		if w.Table.completions != seen {
			return nil
		}
	}
}
