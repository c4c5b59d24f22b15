package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"demikernel/internal/sim"
)

// The gate in Waiter.run skips a rescan only when it could have found
// nothing. This file checks that claim against the loop the Waiter replaced:
// refWaiter rescans after every Step and Block, and both are driven through
// the same scripted world — completions injected from Step and from Block,
// waits nested inside Step, timeouts, redeemed and foreign tokens — and
// must produce the same results, the same Step/Block
// call counts, the same rotation and the same forgery count.

// waitFamily is what a world's script calls: the gated Waiter or refWaiter.
type waitFamily interface {
	WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error)
	WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error)
}

// refWaiter is the wait loop as it was before the gate, kept verbatim as the
// reference: every pass rescans every token.
type refWaiter struct {
	take            func(QToken) (QEvent, bool, error)
	r               Runner
	rr              int
	onEnter, onWake func()
}

func (w *refWaiter) WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error) {
	deadline := sim.Infinity
	if timeout >= 0 {
		deadline = w.r.Now().Add(timeout)
	}
	w.onEnter()
	for {
		for k := range qts {
			i := (k + w.rr) % len(qts)
			ev, done, err := w.take(qts[i])
			if err != nil {
				return -1, QEvent{}, err
			}
			if done {
				if len(qts) > 1 {
					w.rr = i + 1
				}
				return i, ev, nil
			}
		}
		if w.r.Step() {
			continue
		}
		if w.r.Now() >= deadline {
			return -1, QEvent{}, ErrTimeout
		}
		if !w.r.Block(deadline) {
			return -1, QEvent{}, ErrStopped
		}
		w.onWake()
	}
}

func (w *refWaiter) WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error) {
	deadline := sim.Infinity
	if timeout >= 0 {
		deadline = w.r.Now().Add(timeout)
	}
	w.onEnter()
	events := make([]QEvent, len(qts))
	got := make([]bool, len(qts))
	remaining := len(qts)
	for remaining > 0 {
		progress := false
		for i, qt := range qts {
			if got[i] {
				continue
			}
			ev, done, err := w.take(qt)
			if err != nil {
				return events, err
			}
			if done {
				events[i] = ev
				got[i] = true
				remaining--
				progress = true
			}
		}
		if remaining == 0 {
			break
		}
		if progress || w.r.Step() {
			continue
		}
		if w.r.Now() >= deadline {
			return events, ErrTimeout
		}
		if !w.r.Block(deadline) {
			return events, ErrStopped
		}
		w.onWake()
	}
	return events, nil
}

// world is one scripted run: a token table, a Runner whose Step and Block
// complete operations as a seeded script says, and the wait implementation
// under test. Two worlds built from one seed stay in lockstep for as long as
// their waiters make the same calls.
type world struct {
	rng      *rand.Rand
	table    *TokenTable
	pending  []*Op // minted, not yet completed
	minted   []QToken
	now      sim.Time
	depth    int
	w        waitFamily
	rotation func() int

	steps, blocks, enters, wakes int
	log                          []string
}

const worldTenant = 7

func newWorld(seed int64, gated bool) *world {
	wd := &world{rng: rand.New(rand.NewSource(seed)), table: NewTokenTable()}
	wd.table.SetIssuer(worldTenant)
	onEnter, onWake := func() { wd.enters++ }, func() { wd.wakes++ }
	if !gated {
		take := func(qt QToken) (QEvent, bool, error) { return wd.table.TryTakeAs(qt, worldTenant) }
		ref := &refWaiter{take: take, r: wd, onEnter: onEnter, onWake: onWake}
		wd.w, wd.rotation = ref, func() int { return ref.rr }
		return wd
	}
	w := &Waiter{Table: wd.table, Runner: wd, Tenant: worldTenant, OnEnter: onEnter, OnWake: onWake}
	wd.w, wd.rotation = w, func() int { return w.rr }
	return wd
}

// mint issues an operation and returns its token.
func (wd *world) mint() QToken {
	op := wd.table.New()
	wd.pending = append(wd.pending, op)
	wd.minted = append(wd.minted, op.Token())
	return op.Token()
}

// completeOne completes a random pending operation, half of them as
// failures (Fail goes through Complete and must move the count too).
func (wd *world) completeOne() bool {
	if len(wd.pending) == 0 {
		return false
	}
	i := wd.rng.Intn(len(wd.pending))
	op := wd.pending[i]
	wd.pending = append(wd.pending[:i], wd.pending[i+1:]...)
	if wd.rng.Intn(2) == 0 {
		op.Fail(QDesc(op.Token()), OpPush, ErrQueueClosed)
	} else {
		op.Complete(QEvent{QD: QDesc(op.Token()), Op: OpPop})
	}
	return true
}

func (wd *world) Now() sim.Time { return wd.now }

func (wd *world) Step() bool {
	wd.steps++
	wd.now = wd.now.Add(10 * time.Nanosecond)
	switch r := wd.rng.Intn(10); {
	case r < 3:
		return wd.completeOne()
	case r < 5 && wd.depth == 0 && len(wd.minted) > 0:
		// A coroutine waits inside this Step, as an application worker
		// does on its reply push: usually on a fresh token of its own,
		// now and then on one the outer wait may be holding.
		var qt QToken
		if wd.rng.Intn(4) == 0 {
			qt = wd.minted[wd.rng.Intn(len(wd.minted))]
		} else {
			op := wd.table.New()
			wd.pending = append(wd.pending, op)
			qt = op.Token()
		}
		wd.depth++
		i, ev, err := wd.w.WaitAny([]QToken{qt}, 200*time.Nanosecond)
		wd.depth--
		wd.log = append(wd.log, fmt.Sprintf("nested %d %d %v", i, ev.QD, err))
		return true
	case r < 7:
		return true // ran something that completed nothing
	}
	return false
}

func (wd *world) Block(deadline sim.Time) bool {
	wd.blocks++
	wake := wd.now.Add(time.Duration(1+wd.rng.Intn(300)) * time.Nanosecond)
	if wake > deadline {
		wake = deadline
	}
	wd.now = wake
	if wd.rng.Intn(3) > 0 {
		wd.completeOne()
	}
	if len(wd.pending) == 0 && wd.rng.Intn(2) == 0 {
		return false // nothing left that could end the wait: stop
	}
	return wd.rng.Intn(50) > 0
}

// script runs a seed's sequence of waits and returns everything observable.
func (wd *world) script() []string {
	rng := wd.rng
	var live []QToken
	for n := 2 + rng.Intn(30); n > 0; n-- {
		live = append(live, wd.mint())
	}
	for n := rng.Intn(4); n > 0; n-- {
		wd.completeOne() // complete before the first scan
	}
	if rng.Intn(3) == 0 {
		// A token of another tenant, guessed by this one.
		wd.table.SetIssuer(worldTenant + 1)
		live = append(live, wd.table.New().Token())
		wd.table.SetIssuer(worldTenant)
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	}
	for round := 0; round < 12 && len(live) > 0; round++ {
		timeout := time.Duration(-1)
		if rng.Intn(3) == 0 {
			timeout = time.Duration(rng.Intn(400)) * time.Nanosecond
		}
		set := live
		if rng.Intn(2) == 0 {
			set = live[:1+rng.Intn(len(live))]
		}
		switch rng.Intn(5) {
		case 0:
			evs, err := wd.w.WaitAll(set, timeout)
			line := fmt.Sprintf("all %v:", err)
			for _, ev := range evs {
				line += fmt.Sprintf(" %d/%v", ev.QD, ev.Err)
			}
			wd.log = append(wd.log, line)
			switch {
			case errors.Is(err, ErrStopped):
				round = 1 << 30
			case errors.Is(err, ErrBadQToken):
				live = live[:0]
			case err == nil && rng.Intn(4) > 0:
				live = live[len(set):]
			}
			// Otherwise redeemed tokens stay in live, and the next wait
			// over them must fail with ErrBadQToken in both loops.
		default:
			i, ev, err := wd.w.WaitAny(set, timeout)
			wd.log = append(wd.log, fmt.Sprintf("any %d %d/%v %v", i, ev.QD, ev.Err, err))
			switch {
			case err == nil && rng.Intn(8) > 0:
				live = append(live[:i], live[i+1:]...)
			case errors.Is(err, ErrBadQToken):
				live = live[:0]
			case errors.Is(err, ErrStopped):
				round = 1 << 30
			}
		}
		for n := rng.Intn(3); n > 0 || len(live) == 0; n-- {
			live = append(live, wd.mint())
		}
	}
	wd.log = append(wd.log, fmt.Sprintf("steps %d blocks %d enters %d wakes %d rr %d forgeries %d now %d",
		wd.steps, wd.blocks, wd.enters, wd.wakes, wd.rotation(),
		wd.table.Forgeries(), wd.now))
	return wd.log
}

// complete completes the pending operation whose token is qt.
func (wd *world) complete(qt QToken) {
	for i, op := range wd.pending {
		if op.Token() == qt {
			wd.pending = append(wd.pending[:i], wd.pending[i+1:]...)
			op.Complete(QEvent{QD: QDesc(qt), Op: OpPop})
			return
		}
	}
	panic("no pending operation for the token")
}

// fanIn runs a seed's waits over sets of 1 024 tokens and more, as a server
// holding one pop per connection does. The first scan starts from a
// rotation that a longer set left behind, past the end of the set; an
// unknown, a redeemed and a foreign token and a duplicate are put in at
// random positions of the rotation. It returns the log and the rotation
// and length of the first fan-in wait.
func (wd *world) fanIn() (log []string, rr, n int) {
	rng := wd.rng
	long := make([]QToken, 1400+rng.Intn(400))
	for i := range long {
		long[i] = wd.mint()
	}
	// The one complete token sits near the end of the long set, so the
	// wait over it leaves the rotation there.
	redeemed := long[len(long)-1-rng.Intn(100)]
	wd.complete(redeemed)
	i, _, err := wd.w.WaitAny(long, -1)
	wd.log = append(wd.log, fmt.Sprintf("long %d %v", i, err))

	wd.table.SetIssuer(worldTenant + 1)
	foreign := wd.table.New().Token()
	wd.table.SetIssuer(worldTenant)
	set := append([]QToken(nil), long[:1024+rng.Intn(256)]...)
	rr, n = wd.rotation(), len(set)
	insert := func(qt QToken) {
		at := rng.Intn(len(set) + 1)
		set = append(set[:at], append([]QToken{qt}, set[at:]...)...)
	}
	for round := 0; round < 10; round++ {
		switch rng.Intn(7) {
		case 0: // unknown: past the table, or a live slot's wrong generation
			if rng.Intn(2) == 0 {
				insert(QToken(len(wd.table.slots) + 1 + rng.Intn(100)))
			} else {
				insert(set[rng.Intn(len(set))] + 1<<tokenIdxBits)
			}
		case 1:
			insert(redeemed)
		case 2:
			insert(foreign)
		case 3:
			insert(set[rng.Intn(len(set))])
		}
		for k := rng.Intn(4); k > 0; k-- {
			wd.completeOne()
		}
		timeout := time.Duration(-1)
		if rng.Intn(3) == 0 {
			timeout = time.Duration(rng.Intn(2000)) * time.Nanosecond
		}
		if rng.Intn(5) == 0 {
			evs, err := wd.w.WaitAll(set, timeout)
			done := 0
			for _, ev := range evs {
				if ev.Op != 0 {
					done++
				}
			}
			wd.log = append(wd.log, fmt.Sprintf("all %d %v", done, err))
		} else {
			i, ev, err := wd.w.WaitAny(set, timeout)
			wd.log = append(wd.log, fmt.Sprintf("any %d %d/%v %v", i, ev.QD, ev.Err, err))
			if err == nil {
				set[i] = wd.mint() // the server's next pop on the connection
			}
		}
		if rng.Intn(2) == 0 {
			// Drop what can no longer be waited on, or keep it for the
			// next scan to meet.
			set = slices.DeleteFunc(set, func(qt QToken) bool {
				s := wd.table.slot(qt)
				return s == nil || s.tenant != worldTenant || s.done
			})
		}
	}
	wd.log = append(wd.log, fmt.Sprintf("steps %d blocks %d enters %d wakes %d rr %d forgeries %d now %d",
		wd.steps, wd.blocks, wd.enters, wd.wakes, wd.rotation(),
		wd.table.Forgeries(), wd.now))
	return wd.log, rr, n
}

// TestFanInWaitMatchesAlwaysRescan is TestGatedWaitMatchesAlwaysRescan at a
// server's fan-in: sets of 1 024 tokens and more, scanned by the slot
// probe. Mutation-checked: a probe that skips the tenant compare fails it.
func TestFanInWaitMatchesAlwaysRescan(t *testing.T) {
	mustOccur := []string{"any", "all", ErrBadQToken.Error(), ErrTimeout.Error()}
	seen := map[string]int{}
	forged := false
	for seed := int64(1); seed <= 40; seed++ {
		want, _, _ := newWorld(seed, false).fanIn()
		wd := newWorld(seed, true)
		got, rr, n := wd.fanIn()
		forged = forged || wd.table.Forgeries() > 0
		if rr < n {
			t.Fatalf("seed %d: the first fan-in wait starts at rotation %d of %d tokens, want one past the end", seed, rr, n)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d\n got: %q\nwant: %q", seed, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d:\n got: %s\nwant: %s", seed, i, got[i], want[i])
			}
			for _, what := range mustOccur {
				if strings.Contains(want[i], what) {
					seen[what]++
				}
			}
		}
	}
	for _, what := range mustOccur {
		if seen[what] == 0 {
			t.Errorf("no scenario produced %q", what)
		}
	}
	if !forged {
		t.Error("no scenario counted a forgery")
	}
}

func TestGatedWaitMatchesAlwaysRescan(t *testing.T) {
	mustOccur := []string{"nested", "all <nil>", ErrTimeout.Error(), ErrBadQToken.Error(), ErrStopped.Error()}
	seen := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		want := newWorld(seed, false).script()
		got := newWorld(seed, true).script()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d\n got: %q\nwant: %q", seed, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d:\n got: %s\nwant: %s", seed, i, got[i], want[i])
			}
			for _, what := range mustOccur {
				if strings.Contains(want[i], what) {
					seen[what]++
				}
			}
		}
	}
	// The sweep must actually have been through the cases it is there for.
	for _, what := range mustOccur {
		if seen[what] == 0 {
			t.Errorf("no scenario produced %q", what)
		}
	}
}

// TestGateSkipsRescans pins the point of the gate: after the scan at entry,
// a wait looks at its tokens again only once the table's completion count
// has moved, however many Steps run first. The first Step marks a waited
// slot done behind the count's back: a wait that rescanned after any Step
// would redeem it there, and the 1 000 idle Steps that follow must leave it
// where it is until the real completion.
func TestGateSkipsRescans(t *testing.T) {
	tb := NewTokenTable()
	var qts []QToken
	var last *Op
	for i := 0; i < 64; i++ {
		last = tb.New()
		qts = append(qts, last.Token())
	}
	slot := &tb.slots[last.qt&tokenIdxMask-1]
	r := &stubRunner{}
	r.work = append(r.work, func() { slot.done = true })
	for i := 0; i < 1000; i++ {
		r.work = append(r.work, func() {
			if slot.op != last {
				t.Fatal("an idle Step found the slot redeemed")
			}
		})
	}
	r.work = append(r.work, func() { last.Complete(QEvent{QD: 5}) })
	w := &Waiter{Table: tb, Runner: r}
	if i, ev, err := w.WaitAny(qts, -1); err != nil || i != 63 || ev.QD != 5 {
		t.Fatalf("WaitAny = %d, %+v, %v; want the completed operation", i, ev, err)
	}
	if len(r.work) != 0 {
		t.Errorf("the wait returned with %d Steps of work left", len(r.work))
	}
}

// TestWaitSteadyStateDoesNotAllocate guards the annotation on the loop: a
// wait that scans, steps, rescans after a completion and redeems allocates
// nothing of its own.
func TestWaitSteadyStateDoesNotAllocate(t *testing.T) {
	const runs = 100
	tb := NewTokenTable()
	qts := make([]QToken, 65)
	for i := 0; i < 64; i++ {
		qts[i] = tb.New().Token() // outstanding throughout
	}
	pool := make([]*Op, 2*(runs+1)) // minted outside the measured calls
	for i := range pool {
		pool[i] = tb.New()
	}
	next := 0
	r := &completingRunner{}
	w := &Waiter{Table: tb, Runner: r}
	if n := testing.AllocsPerRun(runs, func() {
		r.op, qts[64] = pool[next], pool[next].Token()
		next++
		if _, _, err := w.WaitAny(qts, -1); err != nil {
			t.Fatal(err)
		}
		r.op = pool[next]
		next++
		if _, err := w.Wait(r.op.Token()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WaitAny+Wait allocate %v times per call pair, want 0", n)
	}
}

// completingRunner idles for two steps, then completes op.
type completingRunner struct {
	op    *Op
	calls int
}

func (r *completingRunner) Step() bool {
	r.calls++
	if r.calls%3 == 0 {
		r.op.Complete(QEvent{QD: 1, Op: OpPop})
	}
	return true
}
func (r *completingRunner) Block(sim.Time) bool { return false }
func (r *completingRunner) Now() sim.Time       { return 0 }
