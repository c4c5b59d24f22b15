package core

import (
	"errors"
	"testing"
	"time"

	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// fakeHost records every charge.
type fakeHost struct {
	now     sim.Time
	charged []time.Duration
}

func (h *fakeHost) Now() sim.Time { return h.now }

func (h *fakeHost) Charge(d time.Duration) {
	h.charged = append(h.charged, d)
	h.now = h.now.Add(d)
}

func (*fakeHost) Park(sim.Time) bool { return false }

// fakeStack is a Stack with nothing underneath: it counts polls and builds
// fakeQueues.
type fakeStack struct {
	FrontEnd
	host  fakeHost
	polls int
}

func (s *fakeStack) Poll() bool {
	s.polls++
	return false
}

func (s *fakeStack) NewSocket(qd QDesc, t SockType) (Queue, error) {
	if t != SockStream {
		return nil, ErrNotSupported
	}
	return &fakeQueue{qd: qd}, nil
}

func newFakeStack() *fakeStack {
	s := &fakeStack{}
	s.FrontEnd.Init(s, &s.host, memory.NewHeap(nil), telemetry.NewRegistry("fake"), 0)
	return s
}

// fakeQueue records what reached it; refuse makes every call fail at the
// call site. It has every control capability; bareQueue below has none.
type fakeQueue struct {
	qd      QDesc
	refuse  error
	pending []*Op
	calls   []string
	closed  bool
}

func (q *fakeQueue) call(name string, op *Op) error {
	q.calls = append(q.calls, name)
	if q.refuse != nil {
		return q.refuse
	}
	if op != nil {
		q.pending = append(q.pending, op)
	}
	return nil
}

func (q *fakeQueue) Push(op *Op, sga SGArray, to Addr) error { return q.call("push", op) }
func (q *fakeQueue) Pop(op *Op) error                        { return q.call("pop", op) }
func (q *fakeQueue) Bind(Addr) error                         { return q.call("bind", nil) }
func (q *fakeQueue) Listen(int) error                        { return q.call("listen", nil) }
func (q *fakeQueue) Accept(op *Op) error                     { return q.call("accept", op) }
func (q *fakeQueue) Connect(op *Op, a Addr) error            { return q.call("connect", op) }
func (q *fakeQueue) Close() {
	q.closed = true
	for _, op := range q.pending {
		op.Fail(q.qd, OpPop, ErrQueueClosed)
	}
	q.pending = nil
}

// bareQueue has no control-path capability at all.
type bareQueue struct{ Unconnected }

func (bareQueue) Close() {}

func TestFrontEndDispatch(t *testing.T) {
	s := newFakeStack()
	h := memory.NewHeap(nil)
	qd, err := s.Socket(SockStream)
	if err != nil || qd != 1 {
		t.Fatalf("socket = %d, %v", qd, err)
	}
	got, _ := s.Queues().Lookup(qd)
	q := got.(*fakeQueue)
	if q.qd != qd {
		t.Errorf("NewSocket was told descriptor %d, installed at %d", q.qd, qd)
	}
	sga := SGA(memory.CopyFrom(h, []byte("x")))
	sga.SetTraceCtx(42)
	for i, call := range []func() (QToken, error){
		func() (QToken, error) { return 0, s.Bind(qd, Addr{}) },
		func() (QToken, error) { return 0, s.Listen(qd, 1) },
		func() (QToken, error) { return s.Accept(qd) },
		func() (QToken, error) { return s.Connect(qd, Addr{}) },
		func() (QToken, error) { return s.Push(qd, sga) },
		func() (QToken, error) { return s.PushTo(qd, sga, Addr{Port: 1}) },
		func() (QToken, error) { return s.Pop(qd) },
	} {
		before := len(s.host.charged)
		if _, err := call(); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		if got := s.host.charged[before:]; len(got) != 1 || got[0] != costmodel.Libcall {
			t.Errorf("call %d charged %v, want one libcall (%v)", i, got, costmodel.Libcall)
		}
	}
	want := []string{"bind", "listen", "accept", "connect", "push", "push", "pop"}
	if len(q.calls) != len(want) {
		t.Fatalf("queue saw %v, want %v", q.calls, want)
	}
	for i := range want {
		if q.calls[i] != want[i] {
			t.Errorf("queue saw %v, want %v", q.calls, want)
		}
	}
	// Tokens are numbered in issue order; pushes carry the SGA's trace tag.
	for i, op := range q.pending {
		if op.Token() != QToken(i+1) {
			t.Errorf("op %d has token %d", i, op.Token())
		}
	}
	if q.pending[2].trace != 42 || q.pending[4].trace != 0 {
		t.Errorf("trace stamps: push %d, pop %d; want 42, 0", q.pending[2].trace, q.pending[4].trace)
	}
	sga.Free()
}

// TestFrontEndStep pins the one loop every libOS runs: a runnable coroutine
// runs before the device is polled and is charged exactly one SchedQuantum;
// with nothing runnable, Step polls the stack once and charges nothing of
// its own.
func TestFrontEndStep(t *testing.T) {
	s := newFakeStack()
	ran, pollsSeen := 0, -1
	s.Sched().Spawn(sched.App, sched.Func(func(*sched.Context) sched.Poll {
		ran++
		pollsSeen = s.polls
		return sched.Done
	}))
	if !s.Step() || ran != 1 || pollsSeen != 0 || s.polls != 0 {
		t.Fatalf("runnable coroutine: ran %d, saw %d polls, %d polls after; want 1, 0, 0", ran, pollsSeen, s.polls)
	}
	if got := s.host.charged; len(got) != 1 || got[0] != costmodel.SchedQuantum {
		t.Errorf("coroutine quantum charged %v, want one SchedQuantum (%v)", got, costmodel.SchedQuantum)
	}
	s.host.charged = nil
	if s.Step() || s.polls != 1 {
		t.Errorf("idle Step: %d polls, want 1", s.polls)
	}
	if len(s.host.charged) != 0 {
		t.Errorf("idle Step charged %v itself, want nothing", s.host.charged)
	}
}

func TestFrontEndWithdrawsRefusedCalls(t *testing.T) {
	s := newFakeStack()
	h := memory.NewHeap(nil)
	qd, _ := s.Socket(SockStream)
	got, _ := s.Queues().Lookup(qd)
	q := got.(*fakeQueue)

	first, _ := s.Pop(qd)
	q.refuse = ErrNotBound
	sga := SGA(memory.CopyFrom(h, []byte("x")))
	for name, call := range map[string]func() (QToken, error){
		"push":    func() (QToken, error) { return s.Push(qd, sga) },
		"pop":     func() (QToken, error) { return s.Pop(qd) },
		"accept":  func() (QToken, error) { return s.Accept(qd) },
		"connect": func() (QToken, error) { return s.Connect(qd, Addr{}) },
	} {
		qt, err := call()
		if qt != InvalidQToken || !errors.Is(err, ErrNotBound) {
			t.Errorf("%s = %d, %v; want the queue's refusal", name, qt, err)
		}
	}
	if n := s.Tokens().Outstanding(); n != 1 {
		t.Errorf("%d ops outstanding after refused calls, want the 1 accepted pop", n)
	}
	q.refuse = nil
	if next, _ := s.Pop(qd); next != first+1 {
		t.Errorf("refused calls consumed token numbers: %d then %d", first, next)
	}
	sga.Free()
	if h.LiveObjects() != 0 {
		t.Error("refused push kept the buffer")
	}
}

func TestFrontEndCheckOrder(t *testing.T) {
	s := newFakeStack()
	qd, _ := s.Socket(SockStream)
	bare := s.Queues().Insert(bareQueue{})
	qt := func(_ QToken, err error) error { return err }
	some := SGArray{Segs: []*memory.Buf{nil}}
	for _, c := range []struct {
		what string
		err  error
		want error
	}{
		{"push(bad, empty)", qt(s.Push(99, SGArray{})), ErrEmptySGA},
		{"pushto(bad, empty)", qt(s.PushTo(99, SGArray{}, Addr{Port: 1})), ErrEmptySGA},
		{"push(bad)", qt(s.Push(99, some)), ErrBadQDesc},
		{"pop(bad)", qt(s.Pop(99)), ErrBadQDesc},
		{"bind(bad)", s.Bind(99, Addr{}), ErrBadQDesc},
		{"close(bad)", s.Close(99), ErrBadQDesc},
		{"seek(bad)", s.Seek(99, 0), ErrBadQDesc},
		{"truncate(bad)", s.Truncate(99), ErrBadQDesc},
		{"bind(bare)", s.Bind(bare, Addr{}), ErrNotSupported},
		{"listen(bare)", s.Listen(bare, 1), ErrNotSupported},
		{"accept(bare)", qt(s.Accept(bare)), ErrNotSupported},
		{"connect(bare)", qt(s.Connect(bare, Addr{})), ErrNotSupported},
		{"pushto(bare)", qt(s.PushTo(bare, some, Addr{Port: 1})), ErrNotSupported},
		{"seek(bare)", s.Seek(bare, 0), ErrNotSupported},
		{"truncate(bare)", s.Truncate(bare), ErrNotSupported},
		{"push(bare)", qt(s.Push(bare, some)), ErrNotBound},
		{"pop(bare)", qt(s.Pop(bare)), ErrNotBound},
		{"open", func() error { _, err := s.Open("log"); return err }(), ErrNotSupported},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.err, c.want)
		}
	}
	// A refused Socket consumes no descriptor.
	if _, err := s.Socket(SockDgram); !errors.Is(err, ErrNotSupported) {
		t.Errorf("socket(dgram) = %v", err)
	}
	if next, _ := s.Queue(); next != bare+1 {
		t.Errorf("descriptors %d, %d then %d: a refused Socket consumed one", qd, bare, next)
	}
	if s.Tokens().Outstanding() != 0 {
		t.Error("a refused call left an op outstanding")
	}
}

// TestFrontEndAdopt: a front end that adopts another's tables issues its
// descriptors and tokens from them, so the other's wait redeems its
// operations; adopting after issuing from its own tables is a bug.
func TestFrontEndAdopt(t *testing.T) {
	a, b := newFakeStack(), newFakeStack()
	a.Queue()
	b.Adopt(a.Tokens(), a.Queues())
	qd, _ := b.Queue()
	if q, ok := a.Queues().Lookup(qd); qd != 2 || !ok {
		t.Fatalf("b's queue is descriptor %d, %T in a's table; want 2", qd, q)
	}
	pop, _ := b.Pop(qd)
	b.Close(qd)
	if ev, err := a.Wait(pop); err != nil || !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("a's wait on b's pop = %+v, %v", ev, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Adopt after issuing a descriptor did not panic")
		}
	}()
	a.Adopt(b.Tokens(), b.Queues())
}

func TestFrontEndCloseFailsPendingOps(t *testing.T) {
	s := newFakeStack()
	qd, _ := s.Socket(SockStream)
	got, _ := s.Queues().Lookup(qd)
	pop, _ := s.Pop(qd)
	if err := s.Close(qd); err != nil {
		t.Fatal(err)
	}
	if !got.(*fakeQueue).closed {
		t.Error("queue not closed")
	}
	if ev, err := s.Wait(pop); err != nil || !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("pending pop after close: %+v, %v", ev, err)
	}
	if err := s.Close(qd); !errors.Is(err, ErrBadQDesc) {
		t.Errorf("second close = %v", err)
	}
	if _, ok, err := s.TryTake(pop); ok || !errors.Is(err, ErrBadQToken) {
		t.Errorf("redeemed twice: %v %v", ok, err)
	}
}

// TestFrontEndQueueRoundTripAllocs pins what a Push+Pop+Wait round trip on
// an in-memory queue allocates through the front end: the two Ops, and
// nothing for the buffered array, whose slot is the Rendezvous ring's (a
// slid slice regrew it on every push). A closure or an interface boxing on
// the call path would show here first (allocs_per_req is bounded at +1 %
// on the benchmark; one extra allocation per call is +2.5 % on
// tcp_echo_64b).
func TestFrontEndQueueRoundTripAllocs(t *testing.T) {
	s := newFakeStack()
	h := memory.NewHeap(nil)
	qd, _ := s.Queue()
	sga := SGA(memory.CopyFrom(h, []byte("x")))
	allocs := testing.AllocsPerRun(1000, func() {
		push, _ := s.Push(qd, sga)
		pop, _ := s.Pop(qd)
		s.Wait(push)
		if ev, _ := s.Wait(pop); len(ev.SGA.Segs) != 1 {
			t.Fatal("round trip lost the buffer")
		}
	})
	if allocs != 2 {
		t.Errorf("round trip allocates %v, want 2", allocs)
	}
}
