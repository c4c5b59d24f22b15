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

	// redeemed and foreign are a redeemed token and another tenant's, for
	// fanStep to put in a set.
	redeemed, foreign QToken
}

const worldTenant = 7

func newWorld(seed int64, gated bool) *world {
	wd := &world{rng: rand.New(rand.NewSource(seed)), table: NewTokenTable()}
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
	op := wd.table.NewFor(worldTenant)
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
			op := wd.table.NewFor(worldTenant)
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
		live = append(live, wd.table.NewFor(worldTenant+1).Token())
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
// holding one pop per connection does, with the edits of fanStep between
// them. The first scan starts from a rotation that a longer set left
// behind, past the end of the set. It returns the log and the rotation and
// length of the first fan-in wait.
func (wd *world) fanIn() (log []string, rr, n int) {
	rng := wd.rng
	long := make([]QToken, 1400+rng.Intn(400))
	for i := range long {
		long[i] = wd.mint()
	}
	// The one complete token sits near the end of the long set, so the
	// wait over it leaves the rotation there.
	wd.redeemed = long[len(long)-1-rng.Intn(100)]
	wd.complete(wd.redeemed)
	i, _, err := wd.w.WaitAny(long, -1)
	wd.log = append(wd.log, fmt.Sprintf("long %d %v", i, err))

	wd.foreign = wd.table.NewFor(worldTenant + 1).Token()
	set := append([]QToken(nil), long[:1024+rng.Intn(256)]...)
	rr, n = wd.rotation(), len(set)
	for round := 0; round < 30; round++ {
		set = wd.fanStep(set, rng.Intn(fanSteps), rng.Intn(1<<16))
	}
	return wd.summary(), rr, n
}

// fanSteps is the number of kinds of fanStep.
const fanSteps = 12

// fanStep runs one step of kind k with argument arg over the wait set and
// returns the set the caller holds after it. Half the kinds are a WaitAny
// followed by an edit of the caller's; the rest are edits between waits,
// completions and waits of the same waiter on other sets.
func (wd *world) fanStep(set []QToken, k, arg int) []QToken {
	pick := func() int { return arg % (len(set) + 1) }
	for n := arg >> 12 & 3; n > 0; n-- {
		wd.completeOne()
	}
	switch k {
	case 0, 1, 2, 3, 4, 5:
		timeout := time.Duration(-1)
		if arg>>8&3 == 0 {
			timeout = time.Duration(arg%2000) * time.Nanosecond
		}
		i, ev, err := wd.w.WaitAny(set, timeout)
		wd.log = append(wd.log, fmt.Sprintf("any %d %d/%v %v", i, ev.QD, ev.Err, err))
		switch {
		case errors.Is(err, ErrBadQToken):
			set = wd.waitable(set)
		case err != nil:
		case k < 3: // echo.Server: the redeemed token goes, its successors come
			set = slices.Delete(set, i, i+1)
			set = append(set, wd.mint())
			if arg&1 == 0 {
				set = append(set, wd.mint())
			}
		case k == 3: // the connection's next pop in the redeemed token's place
			set[i] = wd.mint()
		case k == 4: // a stale duplicate of the redeemed token stays behind
			qt := set[i]
			set = slices.Delete(set, i, i+1)
			set = slices.Insert(set, arg%(len(set)+1), qt)
		}
		// k == 5 keeps the redeemed token where it was.
	case 6: // put in a token that fails or a duplicate
		var qt QToken
		switch arg >> 4 & 7 {
		case 0:
			qt = QToken(len(wd.table.slots) + 1 + arg%100) // past the table
		case 1:
			qt = set[arg%len(set)] + 1<<tokenIdxBits // a live slot's wrong generation
		case 2:
			qt = wd.redeemed
		case 3:
			qt = wd.foreign
		default:
			qt = set[arg%len(set)]
		}
		set = slices.Insert(set, pick(), qt)
	case 7: // edits in the middle
		for n := 1 + arg>>10&3; n > 0 && len(set) > 1; n-- {
			if at := arg % len(set); n&1 == 0 {
				set = slices.Delete(set, at, at+1)
			} else {
				set = slices.Insert(set, at, wd.mint())
			}
			arg = arg*7 + 13
		}
	case 8: // the set shrinks: a prefix, or a span cut out
		if arg&1 == 0 {
			set = set[:len(set)/2+arg%(len(set)/2+1)]
		} else {
			at := arg % len(set)
			set = slices.Delete(set, at, min(len(set), at+1+arg>>4%200))
		}
	case 9: // replaced wholesale: the same tokens shuffled, or new ones
		next := make([]QToken, 0, len(set))
		if arg&1 == 0 {
			next = append(next, set...)
			wd.rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		} else {
			for n := 32 + arg>>1%1200; n > 0; n-- {
				next = append(next, wd.mint())
			}
		}
		set = next
	case 10: // more completions than the table's log holds
		for n := completionLog + 1 + arg%40; n > 0; n-- {
			wd.completeOne()
		}
	case 11: // a Wait and a WaitAll of the same waiter on tokens of the set
		qt := set[arg%len(set)]
		i, ev, err := wd.w.WaitAny([]QToken{qt}, -1)
		wd.log = append(wd.log, fmt.Sprintf("wait %d %d/%v %v", i, ev.QD, ev.Err, err))
		few := set
		if arg&2 == 0 {
			few = set[:min(len(set), 1+arg>>4&3)]
		}
		evs, err := wd.w.WaitAll(few, time.Duration(arg%500)*time.Nanosecond)
		line := fmt.Sprintf("all %v:", err)
		for _, ev := range evs {
			line += fmt.Sprintf(" %d/%v", ev.QD, ev.Err)
		}
		wd.log = append(wd.log, line)
		if arg&1 == 0 {
			set = wd.waitable(set)
		}
	}
	if len(set) == 0 {
		set = append(set, wd.mint())
	}
	return set
}

// waitable drops the tokens that can no longer be waited on.
func (wd *world) waitable(set []QToken) []QToken {
	return slices.DeleteFunc(set, func(qt QToken) bool {
		s := wd.table.slot(qt)
		return s == nil || s.tenant != worldTenant || s.done
	})
}

// summary ends the log with the world's counts.
func (wd *world) summary() []string {
	return append(wd.log, fmt.Sprintf("steps %d blocks %d enters %d wakes %d rr %d forgeries %d now %d",
		wd.steps, wd.blocks, wd.enters, wd.wakes, wd.rotation(),
		wd.table.Forgeries(), wd.now))
}

// edits runs a fuzzer's script: a set of 32 to 95 tokens, then one fanStep
// for each three bytes (kind, and a two-byte argument).
func (wd *world) edits(script []byte) []string {
	n := 32
	if len(script) > 0 {
		n += int(script[0] % 64)
		script = script[1:]
	}
	set := make([]QToken, n)
	for i := range set {
		set[i] = wd.mint()
	}
	wd.redeemed = set[0]
	wd.complete(wd.redeemed)
	if _, _, err := wd.table.TryTakeAs(wd.redeemed, worldTenant); err != nil {
		panic(err)
	}
	wd.foreign = wd.table.NewFor(worldTenant + 1).Token()
	for ; len(script) >= 3; script = script[3:] {
		set = wd.fanStep(set, int(script[0])%fanSteps, int(script[1])|int(script[2])<<8)
	}
	return wd.summary()
}

// sameLogs fails t at the first line where got differs from want.
func sameLogs(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d log lines, reference %d\n got: %q\nwant: %q", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", what, i, got[i], want[i])
		}
	}
}

// TestFanInWaitMatchesAlwaysRescan is TestGatedWaitMatchesAlwaysRescan at a
// server's fan-in: sets of 1 024 tokens and more, which WaitAny scans
// through what it verified before (waitSet.known), under the edits a caller
// makes between waits. Mutation-checked: a probe that skips the tenant
// compare fails it, and so does a scan that ignores the completion log,
// one that vouches for a position past the first mismatch whose token
// changed, and one that serves from known after the log overflowed.
func TestFanInWaitMatchesAlwaysRescan(t *testing.T) {
	mustOccur := []string{"any", "all", "wait", ErrBadQToken.Error(), ErrTimeout.Error()}
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
		sameLogs(t, fmt.Sprintf("seed %d", seed), got, want)
		for _, line := range want {
			for _, what := range mustOccur {
				if strings.Contains(line, what) {
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

// FuzzWaitAnyEdits drives the Waiter and the always-rescan loop through the
// same script of edits, completions and waits (world.edits); both must
// write the same log.
func FuzzWaitAnyEdits(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 0, 1, 5, 0})               // the server's edit pattern
	f.Add([]byte{10, 10, 7, 1, 0, 0, 0, 8, 3, 2, 1, 9, 9, 9}) // past the log, then a shrink
	f.Add([]byte{40, 6, 64, 0, 4, 2, 1, 0, 0, 0, 11, 5, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		want := newWorld(1, false).edits(script)
		got := newWorld(1, true).edits(script)
		sameLogs(t, "script", got, want)
	})
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
// nothing of its own, and neither does one over 1 024 tokens in
// echo.Server's edit pattern once known and where are grown.
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

	s := newServerEdits(1026)
	s.premint(2 * (runs + 101))
	for i := 0; i < 100; i++ {
		s.round(t)
	}
	if n := testing.AllocsPerRun(runs, func() { s.round(t) }); n != 0 {
		t.Errorf("a request's two WaitAny calls over %d tokens allocate %v times, want 0", len(s.qts), n)
	}
}

// TestWaitReadsFollowCompletions pins what known is for: in echo.Server's
// edit pattern over 1 024 tokens, a WaitAny reads the slots of the tokens
// the server appended since its last call and of those completed since the
// scan before it, not one slot per token of the set at every scan.
func TestWaitReadsFollowCompletions(t *testing.T) {
	s := newServerEdits(1026)
	for i := 0; i < 100; i++ {
		s.round(t)
	}
	var reads, probed, waits uint64
	s.check = func(read, bound, probe uint64) {
		if read > bound {
			t.Fatalf("a WaitAny over %d tokens read %d slots, want at most %d", len(s.qts)+1, read, bound)
		}
		reads, probed, waits = reads+read, probed+probe, waits+1
	}
	for i := 0; i < 1000; i++ {
		s.round(t)
	}
	t.Logf("%d waits over %d tokens read %.2f slots each; the probe of every scan reads %.0f",
		waits, len(s.qts), float64(reads)/float64(waits), float64(probed)/float64(waits))
}

// serverEdits is echo.Server's wait set at fan-in: an accept and one pop per
// connection, tokens 1 024 and more. Each round completes one pop, which a
// WaitAny takes; the server deletes it and appends a reply push and the
// connection's next pop, and a second WaitAny takes the push.
type serverEdits struct {
	tb    *TokenTable
	w     *Waiter
	r     *oneShotRunner
	qts   []QToken
	ops   map[QToken]*Op
	pool  []*Op // minted ahead, for mint to hand out
	rng   *rand.Rand
	fresh uint64 // tokens appended since the last WaitAny
	// check, if set, sees each WaitAny's slot reads, their bound (the
	// fresh tokens and the completions since the scan before the call),
	// and what TokenTable.probe would have read.
	check func(read, bound, probe uint64)
}

func newServerEdits(n int) *serverEdits {
	s := &serverEdits{tb: NewTokenTable(), r: &oneShotRunner{}, ops: map[QToken]*Op{}, rng: rand.New(rand.NewSource(1))}
	s.w = &Waiter{Table: s.tb, Runner: s.r}
	s.qts = make([]QToken, 0, n+2)
	for i := 0; i < n; i++ {
		s.qts = append(s.qts, s.mint())
	}
	return s
}

// premint mints n operations for later rounds, so that the rounds allocate
// nothing of their own.
func (s *serverEdits) premint(n int) {
	for ; n > 0; n-- {
		op := s.tb.New()
		s.ops[op.Token()] = op
		s.pool = append(s.pool, op)
	}
}

func (s *serverEdits) mint() QToken {
	if n := len(s.pool); n > 0 {
		op := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return op.Token()
	}
	op := s.tb.New()
	s.ops[op.Token()] = op
	return op.Token()
}

// wait has Step complete qt and waits on the set for it.
func (s *serverEdits) wait(tb testing.TB, qt QToken) {
	s.r.op = s.ops[qt]
	delete(s.ops, qt)
	n, rr := len(s.qts), s.w.rr
	var reads, knownAt uint64
	if s.w.set != nil {
		reads, knownAt = s.w.set.reads, s.w.set.knownAt
	}
	i, _, err := s.w.WaitAny(s.qts, -1)
	if err != nil || s.qts[i] != qt {
		tb.Fatalf("WaitAny = %d, %v; want the completed token", i, err)
	}
	if s.check != nil {
		// The probe reads every slot at entry, and at the rescan up to
		// the completed one in rotation order.
		probe := uint64(n + (i-rr%n+n)%n + 1)
		s.check(s.w.set.reads-reads, s.fresh+s.tb.completions-knownAt, probe)
	}
	s.fresh = 0
	s.qts = slices.Delete(s.qts, i, i+1)
}

// round serves one request on a random connection.
func (s *serverEdits) round(tb testing.TB) {
	s.wait(tb, s.qts[s.rng.Intn(len(s.qts))])
	push := s.mint()
	s.qts = append(s.qts, push, s.mint())
	s.fresh = 2
	s.wait(tb, push)
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

// oneShotRunner completes op at its first Step after it is set.
type oneShotRunner struct{ op *Op }

func (r *oneShotRunner) Step() bool {
	if r.op != nil {
		r.op.Complete(QEvent{QD: 1, Op: OpPop})
		r.op = nil
	}
	return true
}
func (r *oneShotRunner) Block(sim.Time) bool { return false }
func (r *oneShotRunner) Now() sim.Time       { return 0 }

func BenchmarkWaitAnyServerEdits(b *testing.B) {
	s := newServerEdits(1026)
	for i := 0; i < b.N; i++ {
		s.round(b)
	}
}
