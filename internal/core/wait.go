package core

import (
	"slices"
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
	// set is what WaitAny verified of the last wait set of cachedMin
	// tokens or more it scanned; nil before the first. Copies of a Waiter
	// share it, so a copy keeps the Table and Tenant.
	set *waitSet
}

// cachedMin is the smallest wait set WaitAny scans through a waitSet; a
// smaller one is probed whole, and leaves the waitSet alone.
const cachedMin = 32

// waitSet is a waiter's memory of its last large wait set.
type waitSet struct {
	// known is a wait set, or a prefix of one, whose every token but the
	// one at hole a scan found live, outstanding and the waiter's when the
	// table's completion count was knownAt. Such a token can change only by
	// completing, so a later scan of a set that repeats known's tokens at
	// known's positions need not read their slots, but for those the table
	// logged since (scan). hole (-1 for none) is where known holds the
	// token the last call redeemed: the caller deletes it, replaces it or
	// keeps it, and the next scan tells which.
	known   []QToken
	knownAt uint64
	hole    int
	// where finds a token of known without a search: where[j] says at
	// which position the token of slot j was put in known, and when. A
	// token moves only toward the front, one place for each token deleted
	// before it, so one put at p when dels was d sits in
	// known[p-(dels-d) : p+1]. remember puts every position again within
	// about 32 calls (cursor), which keeps that window short. dup says
	// known may hold a token twice, which where cannot tell: the scan then
	// searches instead.
	where  []place
	dels   uint32 // deletions from known, ever (wrapping)
	cursor int    // next position of known that remember puts again
	dup    bool
	// reads counts the token slots scan has read.
	reads uint64
}

// place is an entry of waitSet.where.
type place struct {
	qt QToken // the token put; another token of the slot is not in known
	p  int32
	at uint32 // waitSet.dels at the put
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
// completions, not the size of the wait set. A scan reads only slots, and
// of a set of cachedMin tokens or more only those of tokens it cannot vouch
// for from what it verified before (take); it redeems the one token it
// stops at, which is TokenTable.probe's.
func (w *Waiter) WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error) {
	deadline := w.enter(timeout)
	for {
		seen := w.Table.completions
		var i int
		var ev QEvent
		var done bool
		var err error
		if len(qts) < cachedMin {
			if i = w.Table.probe(qts, w.rr, w.Tenant); i >= 0 {
				ev, done, err = w.Table.TryTakeAs(qts[i], w.Tenant)
			}
		} else {
			i, ev, done, err = w.take(qts, seen)
		}
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
		if err := w.run(seen, deadline); err != nil {
			return -1, QEvent{}, err
		}
	}
}

// take is WaitAny's scan of a set of cachedMin tokens or more at completion
// count seen: it finds the token TokenTable.probe(qts, w.rr, w.Tenant)
// names (i is -1 for none) and redeems it or fails it. It scans through
// known (scan) while the table's log covers the completions since knownAt,
// and leaves in known what the scan verified.
func (w *Waiter) take(qts []QToken, seen uint64) (i int, ev QEvent, done bool, err error) {
	t, n := w.Table, len(qts)
	if w.set == nil {
		w.set = &waitSet{hole: -1}
	}
	ws := w.set
	var m, lo, lo2 int // see scan; lo2 <= lo: nothing verified
	if seen-ws.knownAt > completionLog {
		// A probe that finds nothing has verified every token; one that
		// stops, none for certain.
		if i = t.probe(qts, w.rr, w.Tenant); i < 0 {
			lo, lo2 = n, n
		}
	} else {
		i, m, lo, lo2 = ws.scan(t, w.Tenant, qts, w.rr%n, seen)
	}
	if i >= 0 {
		ev, done, err = t.TryTakeAs(qts[i], w.Tenant)
	}
	// known becomes qts up to its first settled token, or, when that one
	// was redeemed, up to the next, with the redeemed one as the hole.
	end, hole := lo, -1
	if done && i == lo && lo < lo2 {
		end, hole = lo2, i
	}
	ws.remember(qts, len(t.slots), seen, min(m, end), end, hole)
	return i, ev, done, err
}

// scan is take's scan through known, for tenant, with the rotation starting
// at position start. When the caller deleted the token at the hole, as
// echo.Server does, scan deletes it from known too. Then qts[:m] is
// known[:m], and a settled token of qts can sit only where known does not
// vouch for the token: at a position from m on whose token differs from
// known's (or lies past its end), at the hole, or where the token is one
// the table logged since knownAt. scan reads those slots alone. It returns
// the settled position nearest the rotation start, the probe's answer,
// since every position before it in rotation order holds an outstanding
// token; and lo < lo2, the two lowest settled positions (len(qts) for
// none).
func (ws *waitSet) scan(t *TokenTable, tenant uint32, qts []QToken, start int, seen uint64) (i, m, lo, lo2 int) {
	n := len(qts)
	m = mismatch(qts, ws.known)
	if h := ws.hole; m == h && h+1 < len(ws.known) && h < n && qts[h] == ws.known[h+1] {
		ws.known = slices.Delete(ws.known, h, h+1)
		ws.dels++
		ws.hole = -1
		m = h + mismatch(qts[h:], ws.known[h:])
	}
	k := ws.known[:min(len(ws.known), n)]
	i, lo, lo2 = -1, n, n
	dist := n
	read := func(p int) {
		ws.reads++
		if t.outstanding(qts[p], tenant) {
			return
		}
		if d := (p - start + n) % n; d < dist {
			i, dist = p, d
		}
		if p < lo {
			lo, lo2 = p, lo
		} else if p < lo2 && p != lo {
			lo2 = p
		}
	}
	if h := ws.hole; h >= 0 && h < len(k) && qts[h] == k[h] {
		read(h) // the caller kept the redeemed token
	}
	for c := ws.knownAt; c != seen; c++ {
		x := t.log[c%completionLog]
		if !ws.dup {
			if p := ws.find(x); p >= 0 && p < n && (p < m || qts[p] == x) {
				read(p)
			}
			continue
		}
		for p, qt := range k { // known may hold x more than once
			if qt == x && qts[p] == x {
				read(p)
			}
		}
	}
	for p := m; p < len(k); p += 1 + mismatch(qts[p+1:], k[p+1:]) {
		read(p)
	}
	for p := len(k); p < n; p++ {
		read(p)
	}
	return i, m, lo, lo2
}

// remember makes known qts[:end], verified at completion count seen but at
// hole (-1 for none), for a table of slots slots; known[:keep] is
// qts[:keep] already.
func (ws *waitSet) remember(qts []QToken, slots int, seen uint64, keep, end, hole int) {
	ws.knownAt, ws.hole = seen, hole
	if len(ws.where) < slots {
		ws.where = append(ws.where, make([]place, slots-len(ws.where))...)
	}
	if len(ws.known) > end {
		ws.known = ws.known[:end]
	}
	k := ws.known
	for p := keep + mismatch(k[keep:], qts[keep:]); p < len(k); p += 1 + mismatch(k[p+1:], qts[p+1:]) {
		k[p] = qts[p]
		ws.putNew(p)
	}
	for p := len(ws.known); p < end; p++ {
		ws.known = append(ws.known, qts[p])
		ws.putNew(p)
	}
	if ws.dup {
		// Look for the duplicate again, over the whole of known.
		ws.dup = false
		for p := range ws.known {
			ws.putNew(p)
		}
	}
	// Put again a share of the positions, so that each is put within
	// about 32 calls however the set shifts.
	for k := len(ws.known)/32 + 2; k > 0 && len(ws.known) > 0; k-- {
		if ws.cursor >= len(ws.known) {
			ws.cursor = 0
		}
		ws.put(ws.cursor)
		ws.cursor++
	}
}

// putNew puts known[p] after checking that known holds its token nowhere
// else.
func (ws *waitSet) putNew(p int) {
	if !ws.dup {
		q := ws.find(ws.known[p])
		ws.dup = q >= 0 && q != p
	}
	ws.put(p)
}

// put records in where that known[p] is at p.
func (ws *waitSet) put(p int) {
	qt := ws.known[p] // found live, so its slot exists
	ws.where[qt&tokenIdxMask-1] = place{qt: qt, p: int32(p), at: ws.dels}
}

// find returns a position at which known holds qt, or -1: where's answer,
// if known holds qt but once.
func (ws *waitSet) find(qt QToken) int {
	j := uint64(qt&tokenIdxMask) - 1
	if j >= uint64(len(ws.where)) || ws.where[j].qt != qt {
		return -1
	}
	e := ws.where[j]
	p := int(e.p)
	for q, end := min(p, len(ws.known)-1), p-int(ws.dels-e.at); q >= 0 && q >= end; q-- {
		if ws.known[q] == qt {
			return q
		}
	}
	return -1
}

// mismatch returns the first position at which a and b differ, or the
// shorter one's length. Whole blocks compare as arrays, which the runtime
// does many words at a time.
func mismatch(a, b []QToken) int {
	n := min(len(a), len(b))
	p := 0
	for ; p+64 <= n; p += 64 {
		if *(*[64]QToken)(a[p:]) != *(*[64]QToken)(b[p:]) {
			break
		}
	}
	for p < n && a[p] == b[p] {
		p++
	}
	return p
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
