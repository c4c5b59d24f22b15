package demi

import (
	"fmt"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

// fakeSide is a scripted libOS half: every call is recorded with the
// descriptor it saw, and tokens come from a real core.TokenTable so the
// combined TryTake path is exercised end to end.
type fakeSide struct {
	name   string
	tokens *core.TokenTable
	calls  []string
	// nextNewQD is delivered as the NewQD of accept/open-style
	// completions.
	nextNewQD core.QDesc
}

func (f *fakeSide) record(op string, qd core.QDesc) {
	f.calls = append(f.calls, fmt.Sprintf("%s(%d)", op, qd))
}

func (f *fakeSide) Socket(t core.SockType) (core.QDesc, error) { return 1, nil }
func (f *fakeSide) Bind(qd core.QDesc, a core.Addr) error      { f.record("bind", qd); return nil }
func (f *fakeSide) Listen(qd core.QDesc, b int) error          { f.record("listen", qd); return nil }
func (f *fakeSide) Queue() (core.QDesc, error)                 { return 2, nil }
func (f *fakeSide) Open(name string) (core.QDesc, error)       { return 3, nil }

func (f *fakeSide) Accept(qd core.QDesc) (core.QToken, error) {
	f.record("accept", qd)
	op := f.tokens.New()
	op.Complete(core.QEvent{QD: qd, Op: core.OpAccept, NewQD: f.nextNewQD})
	return op.Token(), nil
}

func (f *fakeSide) Connect(qd core.QDesc, a core.Addr) (core.QToken, error) {
	f.record("connect", qd)
	op := f.tokens.New()
	op.Complete(core.QEvent{QD: qd, Op: core.OpConnect})
	return op.Token(), nil
}

func (f *fakeSide) Close(qd core.QDesc) error { f.record("close", qd); return nil }

func (f *fakeSide) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	f.record("push", qd)
	op := f.tokens.New()
	op.Complete(core.QEvent{QD: qd, Op: core.OpPush})
	return op.Token(), nil
}

func (f *fakeSide) PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error) {
	f.record("pushto", qd)
	op := f.tokens.New()
	op.Complete(core.QEvent{QD: qd, Op: core.OpPush})
	return op.Token(), nil
}

func (f *fakeSide) Pop(qd core.QDesc) (core.QToken, error) {
	f.record("pop", qd)
	op := f.tokens.New()
	op.Complete(core.QEvent{QD: qd, Op: core.OpPop})
	return op.Token(), nil
}

func (f *fakeSide) Wait(qt core.QToken) (core.QEvent, error) { panic("unused") }
func (f *fakeSide) WaitAny(qts []core.QToken, d time.Duration) (int, core.QEvent, error) {
	panic("unused")
}
func (f *fakeSide) WaitAll(qts []core.QToken, d time.Duration) ([]core.QEvent, error) {
	panic("unused")
}
func (f *fakeSide) Heap() *memory.Heap                { return nil }
func (f *fakeSide) Tokens() *core.TokenTable          { return f.tokens }
func (f *fakeSide) Step() bool                        { return false }
func (f *fakeSide) Block(deadline sim.Time) bool      { return false }
func (f *fakeSide) Now() sim.Time                     { return 0 }
func (f *fakeSide) Mount() error                      { return nil }
func (f *fakeSide) Seek(qd core.QDesc, o int64) error { f.record("seek", qd); return nil }
func (f *fakeSide) Truncate(qd core.QDesc) error      { f.record("truncate", qd); return nil }

func newFakes() (*Combined, *fakeSide, *fakeSide) {
	net := &fakeSide{name: "net", tokens: core.NewTokenTable()}
	stor := &fakeSide{name: "stor", tokens: core.NewTokenTable()}
	return NewCombined(net, stor), net, stor
}

// TestCombinedTagRouting drives each PDPIX call through Combined and
// checks which side saw it and with which (untagged) descriptor, plus
// whether the returned token carries the storage tag.
func TestCombinedTagRouting(t *testing.T) {
	const stQD = core.QDesc(7) // a storage-side descriptor, pre-tagging

	cases := []struct {
		name     string
		invoke   func(c *Combined) (core.QToken, error)
		wantSide string // "net" or "stor"
		wantCall string // recorded call on that side
		wantTag  bool   // returned token carries storTokenTag
	}{
		{
			name: "push untagged routes to net",
			invoke: func(c *Combined) (core.QToken, error) {
				return c.Push(5, core.SGArray{})
			},
			wantSide: "net", wantCall: "push(5)", wantTag: false,
		},
		{
			name: "push tagged routes to stor untagged",
			invoke: func(c *Combined) (core.QToken, error) {
				return c.Push(stQD|storTag, core.SGArray{})
			},
			wantSide: "stor", wantCall: "push(7)", wantTag: true,
		},
		{
			name: "pop untagged routes to net",
			invoke: func(c *Combined) (core.QToken, error) {
				return c.Pop(5)
			},
			wantSide: "net", wantCall: "pop(5)", wantTag: false,
		},
		{
			name: "pop tagged routes to stor untagged",
			invoke: func(c *Combined) (core.QToken, error) {
				return c.Pop(stQD | storTag)
			},
			wantSide: "stor", wantCall: "pop(7)", wantTag: true,
		},
		{
			name: "accept stays on net",
			invoke: func(c *Combined) (core.QToken, error) {
				return c.Accept(5)
			},
			wantSide: "net", wantCall: "accept(5)", wantTag: false,
		},
		{
			name: "connect stays on net",
			invoke: func(c *Combined) (core.QToken, error) {
				return c.Connect(5, core.Addr{})
			},
			wantSide: "net", wantCall: "connect(5)", wantTag: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, net, stor := newFakes()
			qt, err := tc.invoke(c)
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
			want, other := net, stor
			if tc.wantSide == "stor" {
				want, other = stor, net
			}
			if len(want.calls) != 1 || want.calls[0] != tc.wantCall {
				t.Fatalf("%s calls = %v, want [%s]", tc.wantSide, want.calls, tc.wantCall)
			}
			if len(other.calls) != 0 {
				t.Fatalf("wrong side also called: %v", other.calls)
			}
			if got := isStorQT(qt); got != tc.wantTag {
				t.Fatalf("token tag = %v, want %v", got, tc.wantTag)
			}
			// The combined table must redeem the token it handed out.
			ev, done, terr := c.TryTake(qt)
			if terr != nil || !done {
				t.Fatalf("TryTake: done=%v err=%v", done, terr)
			}
			if tc.wantTag && ev.QD&storTag == 0 {
				t.Fatalf("storage event QD %d not retagged", ev.QD)
			}
		})
	}
}

// TestCombinedCloseSeekTruncateRouting checks the descriptor-routed
// control calls.
func TestCombinedCloseSeekTruncateRouting(t *testing.T) {
	c, net, stor := newFakes()
	if err := c.Close(9); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(9 | storTag); err != nil {
		t.Fatal(err)
	}
	if err := c.Seek(9|storTag, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(9 | storTag); err != nil {
		t.Fatal(err)
	}
	if err := c.Seek(9, 0); err != core.ErrNotSupported {
		t.Fatalf("seek on net qd = %v, want ErrNotSupported", err)
	}
	if err := c.Truncate(9); err != core.ErrNotSupported {
		t.Fatalf("truncate on net qd = %v, want ErrNotSupported", err)
	}
	if len(net.calls) != 1 || net.calls[0] != "close(9)" {
		t.Fatalf("net calls = %v", net.calls)
	}
	wantStor := []string{"close(9)", "seek(9)", "truncate(9)"}
	if len(stor.calls) != len(wantStor) {
		t.Fatalf("stor calls = %v, want %v", stor.calls, wantStor)
	}
	for i, w := range wantStor {
		if stor.calls[i] != w {
			t.Fatalf("stor calls = %v, want %v", stor.calls, wantStor)
		}
	}
}

// TestCombinedRetagsNewQD: a storage-side completion carrying a NewQD must
// surface it tagged, and the tagged descriptor must route back to the
// storage side — the full round trip an application performs.
func TestCombinedRetagsNewQD(t *testing.T) {
	c, _, stor := newFakes()
	stor.nextNewQD = 11

	// Drive an accept-style completion through the storage table via the
	// tagged path (Combined has no storage accept call, so mint the token
	// directly and redeem it through the combined namespace).
	qt, err := stor.Accept(4)
	if err != nil {
		t.Fatal(err)
	}
	ev, done, err := c.TryTake(tagQT(qt))
	if err != nil || !done {
		t.Fatalf("TryTake: done=%v err=%v", done, err)
	}
	if ev.QD != tagQD(4) {
		t.Fatalf("event QD = %d, want tagged 4", ev.QD)
	}
	if ev.NewQD != tagQD(11) {
		t.Fatalf("event NewQD = %d, want tagged 11", ev.NewQD)
	}
	// The tagged NewQD routes back to the storage side, untagged.
	stor.calls = nil
	if _, err := c.Push(ev.NewQD, core.SGArray{}); err != nil {
		t.Fatal(err)
	}
	if len(stor.calls) != 1 || stor.calls[0] != "push(11)" {
		t.Fatalf("stor calls = %v, want [push(11)]", stor.calls)
	}
}

// TestCombinedNetNewQDUntouched: network completions must pass through
// retag-free — tagging a net accept's NewQD would route it to storage.
func TestCombinedNetNewQDUntouched(t *testing.T) {
	c, net, _ := newFakes()
	net.nextNewQD = 13
	qt, err := c.Accept(4)
	if err != nil {
		t.Fatal(err)
	}
	ev, done, err := c.TryTake(qt)
	if err != nil || !done {
		t.Fatalf("TryTake: done=%v err=%v", done, err)
	}
	if ev.NewQD != 13 {
		t.Fatalf("net NewQD = %d, want 13 untagged", ev.NewQD)
	}
}

// Tokens are sequential uint64 counts per table: the storage tag must route
// every count a table can reach, and survive the round trip. At bit 30 (the
// descriptor tag's bit) a network token of 2³⁰ read as a storage token and a
// storage token past 2³⁰ lost a bit on the way back.
func TestTokenTagRoundTrip(t *testing.T) {
	for _, qt := range []core.QToken{
		1, 1<<30 - 1, 1 << 30, 1<<30 + 1, 1<<30 | 12345,
		1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<32 | 1<<30 | 7, 1<<62 + 1,
	} {
		if isStorQT(qt) {
			t.Errorf("network token %#x routes to the storage table", qt)
		}
		tagged := tagQT(qt)
		if !isStorQT(tagged) {
			t.Errorf("storage token %#x, tagged %#x, routes to the network table", qt, tagged)
		}
		if got := untagQT(tagged); got != qt {
			t.Errorf("storage token %#x comes back from its tag as %#x", qt, got)
		}
	}
}
