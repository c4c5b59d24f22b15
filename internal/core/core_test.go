package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

func TestTokenLifecycle(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	if op.Done() {
		t.Fatal("fresh op already done")
	}
	if _, done, err := tb.TryTake(op.Token()); done || err != nil {
		t.Fatalf("TryTake on pending: done=%v err=%v", done, err)
	}
	op.Complete(QEvent{QD: 3, Op: OpPop})
	ev, done, err := tb.TryTake(op.Token())
	if err != nil || !done {
		t.Fatalf("TryTake after complete: done=%v err=%v", done, err)
	}
	if ev.QD != 3 || ev.Op != OpPop {
		t.Errorf("event = %+v", ev)
	}
	// Redeeming twice is an error.
	if _, _, err := tb.TryTake(op.Token()); !errors.Is(err, ErrBadQToken) {
		t.Errorf("second take err = %v", err)
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	op.Complete(QEvent{})
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	op.Complete(QEvent{})
}

// A token is a slot and a generation: what each kind of token that is not
// an outstanding operation's answers, and what freeing a slot does to the
// tokens minted next. (token_equiv_test.go checks the same against the map
// the slots replaced, over random scripts.)
func TestTokenIsSlotAndGeneration(t *testing.T) {
	tb := NewTokenTable()
	a, b := tb.New(), tb.New()
	if a.Token() != 1 || b.Token() != 2 {
		t.Fatalf("a fresh table minted %#x, %#x; want 1, 2", a.Token(), b.Token())
	}
	bad := func(what string, qt QToken) {
		t.Helper()
		if _, done, err := tb.TryTake(qt); done || err != ErrBadQToken {
			t.Errorf("TryTake(%s) = %v, %v", what, done, err)
		}
		if _, done, err := tb.TryTakeAs(qt, 0); done || err != ErrBadQToken {
			t.Errorf("TryTakeAs(%s) = %v, %v", what, done, err)
		}
		if op, ok := tb.Lookup(qt); ok || op != nil {
			t.Errorf("Lookup(%s) found %v", what, op)
		}
	}
	bad("InvalidQToken", InvalidQToken)
	bad("an index past the table", 3)
	bad("the largest index", tokenIdxMask)
	bad("a live index at a later generation", a.Token()|1<<tokenIdxBits)
	bad("a live token with bit 63 set", a.Token()|1<<63)

	a.Complete(QEvent{QD: 1})
	if _, done, err := tb.TryTake(a.Token()); !done || err != nil {
		t.Fatalf("redeem: %v, %v", done, err)
	}
	bad("a redeemed token", a.Token())
	// The freed slot is the next one minted, one generation on; the token
	// it had stays dead while the new operation completes and redeems once.
	c := tb.New()
	if want := a.Token() | 1<<tokenIdxBits; c.Token() != want {
		t.Fatalf("the freed slot re-minted as %#x, want %#x", c.Token(), want)
	}
	bad("a token whose slot was re-minted", a.Token())
	if c.Done() {
		t.Fatal("a stale redeem touched the slot's new operation")
	}
	c.Complete(QEvent{QD: 3})
	if ev, done, err := tb.TryTake(c.Token()); !done || err != nil || ev.QD != 3 {
		t.Fatalf("the slot's new operation: %+v, %v, %v", ev, done, err)
	}
	bad("the new operation's token, redeemed", c.Token())

	// A withdrawn operation leaves no trace: the next New mints the very
	// same token and issue number, and completing the withdrawn one is loud.
	issued := tb.Issued()
	w := tb.New()
	tb.Withdraw(w)
	if tb.Issued() != issued {
		t.Errorf("Issued %d after a withdrawal, %d before the call", tb.Issued(), issued)
	}
	if d := tb.New(); d.Token() != w.Token() || d.seq != w.seq {
		t.Errorf("after a withdrawal New minted %#x (issue %d), want %#x (%d) again", d.Token(), d.seq, w.Token(), w.seq)
	}
	if !panics(func() { w.Complete(QEvent{}) }) {
		t.Error("completing a withdrawn operation did not panic")
	}
	if n := tb.Outstanding(); n != 2 {
		t.Errorf("%d outstanding, want b and the last mint", n)
	}

	// A generation wraps inside its 39 bits, never into bit 63.
	last := NewTokenTable()
	last.slots = []tokenSlot{{qt: tokenGenMask << tokenIdxBits}}
	last.free = 1
	op := last.New()
	if op.Token()>>63 != 0 || op.Token()>>tokenIdxBits != tokenGenMask {
		t.Fatalf("minted %#x at the last generation", op.Token())
	}
	op.Complete(QEvent{})
	last.TryTake(op.Token())
	if next := last.New(); next.Token() != 1 {
		t.Errorf("the generation after the last minted %#x, want 1", next.Token())
	}
}

// TestTokenCycleAllocs: on a warmed table New → Complete → TryTake costs the
// Op — one object, in the 128-byte class — and nothing for the table; a
// 1 024-token WaitAny with one token ready costs nothing at all.
func TestTokenCycleAllocs(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size > 128 {
		t.Errorf("Op is %d bytes: past the 128-byte size class every operation is allocated in", size)
	}
	if size := unsafe.Sizeof(tokenSlot{}); size != 24 {
		t.Errorf("a slot is %d bytes, the table's doc comment says 24", size)
	}
	tb := NewTokenTable()
	ev := QEvent{QD: 3, Op: OpPop, SGA: SGA(memory.CopyFrom(memory.NewHeap(nil), []byte("x")))}
	cycle := func() {
		op := tb.New()
		op.Trace(7)
		ev.SGA.SetTraceCtx(uint64(op.Token()))
		op.Complete(ev)
		if got, done, _ := tb.TryTake(op.Token()); !done || got.SGA.TraceCtx() != uint64(op.Token()) {
			t.Fatal("token did not complete with its data")
		}
	}
	cycle() // the table takes its one slot
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	avg := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&m1)
	// AllocsPerRun calls cycle runs+1 times; the measurement's own few
	// hundred bytes are under one byte a run, and the size class after 128
	// is 144.
	if perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1); avg != 1 || perRun >= 129 {
		t.Errorf("a token cycle allocates %v objects, %.1f bytes; want the Op: 1 object of at most 128 bytes", avg, perRun)
	}

	ops := make([]*Op, 1024)
	qts := make([]QToken, len(ops))
	for i := range ops {
		ops[i] = tb.New()
		qts[i] = ops[i].Token()
	}
	spare := make([]*Op, runs+1) // minted outside the measured calls
	for i := range spare {
		spare[i] = tb.New()
	}
	w := &Waiter{Table: tb, Runner: &stubRunner{}}
	next := 0
	if avg := testing.AllocsPerRun(runs, func() {
		next = (next + 389) % len(ops)
		ops[next].Complete(ev)
		if i, _, err := w.WaitAny(qts, -1); err != nil || i != next {
			t.Fatalf("WaitAny = %d, %v; want %d", i, err, next)
		}
		ops[next], spare = spare[0], spare[1:]
		qts[next] = ops[next].Token()
	}); avg != 0 {
		t.Errorf("a 1024-token WaitAny with one token ready allocates %v objects, want 0", avg)
	}
}

func TestSGArrayHelpers(t *testing.T) {
	h := memory.NewHeap(nil)
	a := memory.CopyFrom(h, []byte("abc"))
	b := memory.CopyFrom(h, []byte("defg"))
	sga := SGA(a, b)
	if sga.TotalLen() != 7 {
		t.Errorf("TotalLen = %d", sga.TotalLen())
	}
	if string(sga.Flatten()) != "abcdefg" {
		t.Errorf("Flatten = %q", sga.Flatten())
	}
	sga.Free()
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d after Free", h.LiveObjects())
	}
}

func TestMemQueuePushThenPop(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	push := tb.New()
	q.Push(push, SGA(memory.CopyFrom(h, []byte("x"))), Addr{})
	if !push.Done() {
		t.Fatal("push did not complete immediately")
	}
	pop := tb.New()
	q.Pop(pop)
	if !pop.Done() {
		t.Fatal("pop with buffered data did not complete")
	}
	ev, _, _ := tb.TryTake(pop.Token())
	if string(ev.SGA.Flatten()) != "x" {
		t.Errorf("popped %q", ev.SGA.Flatten())
	}
}

func TestMemQueuePopThenPush(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	pop := tb.New()
	q.Pop(pop)
	if pop.Done() {
		t.Fatal("pop completed with no data")
	}
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("y"))), Addr{})
	if !pop.Done() {
		t.Fatal("pending pop not completed by push")
	}
}

func TestMemQueueFIFOAcrossWaiters(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	pop1, pop2 := tb.New(), tb.New()
	q.Pop(pop1)
	q.Pop(pop2)
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("first"))), Addr{})
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("second"))), Addr{})
	ev1, _, _ := tb.TryTake(pop1.Token())
	ev2, _, _ := tb.TryTake(pop2.Token())
	if string(ev1.SGA.Flatten()) != "first" || string(ev2.SGA.Flatten()) != "second" {
		t.Error("pops not served FIFO")
	}
}

// TestMemQueueCloseFreesBufferedData: Close runs when the descriptor is
// released, so nothing can drain the queue afterwards — parked pops fail,
// buffered data is freed (never leaked), and late pushes and pops fail with
// the pushed buffer freed by the queue.
func TestMemQueueCloseFreesBufferedData(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("a"))), Addr{})
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("b"))), Addr{})
	q.Close()
	q.Close() // idempotent
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d after Close, want 0", h.LiveObjects())
	}
	if q.Depth() != 0 {
		t.Errorf("depth = %d after Close", q.Depth())
	}
	pop := tb.New()
	q.Pop(pop)
	if ev, _, _ := tb.TryTake(pop.Token()); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("pop after close: %+v", ev)
	}
	push := tb.New()
	q.Push(push, SGA(memory.CopyFrom(h, []byte("w"))), Addr{})
	if ev, _, _ := tb.TryTake(push.Token()); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("push after close: %+v", ev)
	}
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d, want 0: the rejected push's buffer is the queue's to free", h.LiveObjects())
	}
}

func TestMemQueueCloseFailsParkedPop(t *testing.T) {
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	pending := tb.New()
	q.Pop(pending)
	q.Close()
	if ev, _, _ := tb.TryTake(pending.Token()); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("parked pop after close: %+v", ev)
	}
}

func TestMemQueueBackpressure(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 2)
	if q.Capacity() != 2 {
		t.Fatalf("capacity = %d", q.Capacity())
	}
	p1, p2, p3 := tb.New(), tb.New(), tb.New()
	q.Push(p1, SGA(memory.CopyFrom(h, []byte("1"))), Addr{})
	q.Push(p2, SGA(memory.CopyFrom(h, []byte("2"))), Addr{})
	q.Push(p3, SGA(memory.CopyFrom(h, []byte("3"))), Addr{})
	if !p1.Done() || !p2.Done() {
		t.Fatal("pushes below high-water did not complete")
	}
	if p3.Done() {
		t.Fatal("push at capacity completed without backpressure")
	}
	if q.Depth() != 3 || q.Len() != 2 {
		t.Fatalf("depth = %d len = %d, want 3/2", q.Depth(), q.Len())
	}
	// A pop frees one slot; the parked push is admitted FIFO.
	pop := tb.New()
	q.Pop(pop)
	ev, _, _ := tb.TryTake(pop.Token())
	if string(ev.SGA.Flatten()) != "1" {
		t.Errorf("pop got %q", ev.SGA.Flatten())
	}
	ev.SGA.Free()
	if !p3.Done() {
		t.Fatal("parked push not admitted after pop")
	}
	if q.Depth() != 2 {
		t.Errorf("depth = %d after admit", q.Depth())
	}
	// Drain and verify FIFO order survived the backpressure stall.
	for _, want := range []string{"2", "3"} {
		pop := tb.New()
		q.Pop(pop)
		ev, _, _ := tb.TryTake(pop.Token())
		if string(ev.SGA.Flatten()) != want {
			t.Errorf("drained %q, want %q", ev.SGA.Flatten(), want)
		}
		ev.SGA.Free()
	}
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d after drain", h.LiveObjects())
	}
}

func TestMemQueueCloseFailsParkedPush(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 1)
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("kept"))), Addr{})
	parked := tb.New()
	q.Push(parked, SGA(memory.CopyFrom(h, []byte("parked"))), Addr{})
	q.Close()
	ev, _, _ := tb.TryTake(parked.Token())
	if !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("parked push after close: %+v", ev)
	}
	// Both the parked push's buffer and the buffered one were freed.
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d, want 0", h.LiveObjects())
	}
}

// stubRunner drives a Waiter in tests: Step completes queued ops; Block
// advances a fake clock.
type stubRunner struct {
	now     sim.Time
	work    []func()
	stopped bool
}

func (r *stubRunner) Step() bool {
	if len(r.work) == 0 {
		return false
	}
	f := r.work[0]
	r.work = r.work[1:]
	f()
	return true
}

func (r *stubRunner) Block(deadline sim.Time) bool {
	if r.stopped {
		return false
	}
	if deadline == sim.Infinity {
		// Nothing will ever happen: simulate a stuck runtime by stopping.
		r.stopped = true
		return false
	}
	r.now = deadline
	return true
}

func (r *stubRunner) Now() sim.Time { return r.now }

func TestWaiterWaitCompletesViaStep(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	r := &stubRunner{work: []func(){
		func() {}, // a no-op quantum first
		func() { op.Complete(QEvent{QD: 9, Op: OpPush}) },
	}}
	w := &Waiter{Table: tb, Runner: r}
	ev, err := w.Wait(op.Token())
	if err != nil {
		t.Fatal(err)
	}
	if ev.QD != 9 {
		t.Errorf("event = %+v", ev)
	}
}

func TestWaiterTimeout(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	r := &stubRunner{}
	w := &Waiter{Table: tb, Runner: r}
	_, _, err := w.WaitAny([]QToken{op.Token()}, 5*time.Microsecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestWaiterStopped(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	r := &stubRunner{}
	w := &Waiter{Table: tb, Runner: r}
	if _, err := w.Wait(op.Token()); !errors.Is(err, ErrStopped) {
		t.Errorf("err = %v, want ErrStopped", err)
	}
}

func TestWaitAnyReturnsFirstCompleted(t *testing.T) {
	tb := NewTokenTable()
	a, b := tb.New(), tb.New()
	r := &stubRunner{work: []func(){
		func() { b.Complete(QEvent{QD: 2, Op: OpPop}) },
	}}
	w := &Waiter{Table: tb, Runner: r}
	i, ev, err := w.WaitAny([]QToken{a.Token(), b.Token()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 || ev.QD != 2 {
		t.Errorf("i=%d ev=%+v", i, ev)
	}
	// a is still outstanding and redeemable later.
	if _, done, err := tb.TryTake(a.Token()); done || err != nil {
		t.Error("untouched token corrupted by WaitAny")
	}
}

func TestWaitAllCollectsInOrder(t *testing.T) {
	tb := NewTokenTable()
	a, b, c := tb.New(), tb.New(), tb.New()
	r := &stubRunner{work: []func(){
		func() { c.Complete(QEvent{QD: 3}) },
		func() { a.Complete(QEvent{QD: 1}) },
		func() { b.Complete(QEvent{QD: 2}) },
	}}
	w := &Waiter{Table: tb, Runner: r}
	evs, err := w.WaitAll([]QToken{a.Token(), b.Token(), c.Token()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []QDesc{1, 2, 3} {
		if evs[i].QD != want {
			t.Errorf("evs[%d].QD = %d, want %d", i, evs[i].QD, want)
		}
	}
}

func TestQDescTable(t *testing.T) {
	tbl := NewQDescTable()
	a, b := NewBoundedMemQueue(1, 0), NewBoundedMemQueue(1, 0)
	if tbl.Next() != 1 || tbl.Next() != 1 {
		t.Fatal("Next consumed a descriptor")
	}
	qd := tbl.Insert(a)
	if got, ok := tbl.Lookup(qd); qd != 1 || !ok || got != Queue(a) {
		t.Fatal("lookup failed")
	}
	if _, ok := tbl.Lookup(qd + 100); ok {
		t.Error("phantom descriptor")
	}
	if ok := tbl.Replace(qd, b); !ok {
		t.Error("replace refused a live descriptor")
	}
	if got, _ := tbl.Lookup(qd); got != Queue(b) || tbl.Len() != 1 {
		t.Error("replace did not swap the queue in place")
	}
	if got, ok := tbl.Remove(qd); !ok || got != Queue(b) {
		t.Error("remove failed")
	}
	if _, ok := tbl.Lookup(qd); ok {
		t.Error("descriptor survived removal")
	}
	if _, ok := tbl.Remove(qd); ok {
		t.Error("removed twice")
	}
	if tbl.Replace(qd, a) || tbl.Len() != 0 {
		t.Error("replace brought a closed descriptor back to life")
	}
	if tbl.Next() != 2 {
		t.Error("a released descriptor was reused")
	}
}

// The descriptor space runs out loudly: the last descriptor is
// math.MaxInt32, and the Insert after it panics instead of wrapping to a
// negative descriptor.
func TestQDescTableRunsOutLoudly(t *testing.T) {
	tbl := NewQDescTable()
	tbl.next = math.MaxInt32 - 1
	if qd := tbl.Insert(NewBoundedMemQueue(1, 0)); qd != math.MaxInt32 {
		t.Fatalf("Insert = %d, want %d", qd, math.MaxInt32)
	}
	defer func() {
		if recover() == nil {
			t.Error("Insert past math.MaxInt32 handed out a descriptor")
		}
		if tbl.Len() != 1 {
			t.Errorf("the table holds %d descriptors after the refused Insert, want 1", tbl.Len())
		}
	}()
	qd := tbl.Insert(NewBoundedMemQueue(1, 0))
	t.Errorf("Insert handed out %d", qd)
}
