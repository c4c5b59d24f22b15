package catnip

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
)

// This file runs Catnip with no simulator under it: two stacks on one
// goroutine, over a pair of in-memory frame rings, on hosts whose clock is
// the monotonic wall clock. Nothing here builds a sim.Engine or a sim.Node,
// so a stack that reached past its front end to one would nil-deref.

// wallTimer is one armed timer: fn runs once the wall clock reaches at.
type wallTimer struct {
	at sim.Time
	fn func()
}

// timerHeap is a binary min-heap of timers by deadline. It is typed, so an
// arm boxes nothing, and keeps its array, so a warm one allocates nothing.
type timerHeap struct{ ts []wallTimer }

// arm is the stacks' timer (newLibOS's wakeAt).
func (h *timerHeap) arm(at sim.Time, fn func()) {
	h.ts = append(h.ts, wallTimer{at, fn})
	for i := len(h.ts) - 1; i > 0; {
		p := (i - 1) / 2
		if h.ts[p].at <= h.ts[i].at {
			break
		}
		h.ts[p], h.ts[i] = h.ts[i], h.ts[p]
		i = p
	}
}

// fire runs, earliest first, every timer due by now.
func (h *timerHeap) fire(now sim.Time) {
	for len(h.ts) > 0 && h.ts[0].at <= now {
		fn := h.ts[0].fn
		last := len(h.ts) - 1
		h.ts[0] = h.ts[last]
		h.ts[last] = wallTimer{}
		h.ts = h.ts[:last]
		for i := 0; ; {
			m, l, r := i, 2*i+1, 2*i+2
			if l < last && h.ts[l].at < h.ts[m].at {
				m = l
			}
			if r < last && h.ts[r].at < h.ts[m].at {
				m = r
			}
			if m == i {
				break
			}
			h.ts[i], h.ts[m] = h.ts[m], h.ts[i]
			i = m
		}
		fn()
	}
}

// wallHost is a machine with no simulator under it (core.Host), shared by
// both stacks: the monotonic clock, CPU that costs nothing, and a Park that
// fires due timers and then steps the server stack until it does no more
// work. Only the client, the test's goroutine, ever parks.
type wallHost struct {
	*sim.WallClock
	timers *timerHeap
	serve  func() bool // steps the server stack and its application; reports whether either did work
}

func (*wallHost) Charge(time.Duration) {}

func (h *wallHost) Park(sim.Time) bool {
	h.timers.fire(h.Now())
	for h.serve() {
	}
	return true
}

// wireSlots is how many frames one direction of the wire holds; a frame
// sent to a full ring is dropped, as a NIC's full rx ring drops it. Each
// slot's buffer is made once, as long as the longest frame Catnip sends.
const (
	wireSlots    = 128
	wireFrameCap = 2048
)

// wireRing is one direction of a point-to-point wire: the frames one stack
// sent and the other has not received, each in a buffer the ring keeps for
// a later frame, and the Mbufs a receive hands out, reused by the next one.
// A stack frees a burst's Mbufs before it receives again, and the ring's
// sender never runs while its receiver handles a burst, so neither is
// overwritten in use.
type wireRing struct {
	frames  [wireSlots][]byte
	head, n int
	mbufs   [32]dpdkdev.Mbuf
	burst   [32]*dpdkdev.Mbuf
	drops   int
}

func newWireRing() *wireRing {
	r := &wireRing{}
	for i := range r.frames {
		r.frames[i] = make([]byte, 0, wireFrameCap)
	}
	return r
}

// wirePort is one stack's end of the wire (Device).
type wirePort struct {
	mac    simnet.MAC
	tx, rx *wireRing
}

func (p *wirePort) MAC() simnet.MAC { return p.mac }

func (p *wirePort) TxBurst(frames [][]byte) int {
	r := p.tx
	sent := 0
	for _, f := range frames {
		if r.n == wireSlots {
			r.drops++
			continue
		}
		i := (r.head + r.n) % wireSlots
		r.frames[i] = append(r.frames[i][:0], f...)
		r.n++
		sent++
	}
	return sent
}

func (p *wirePort) RxBurst(max int) []*dpdkdev.Mbuf {
	r := p.rx
	k := min(max, r.n, len(r.mbufs))
	for j := 0; j < k; j++ {
		r.mbufs[j] = dpdkdev.Mbuf{Data: r.frames[(r.head+j)%wireSlots]}
		r.burst[j] = &r.mbufs[j]
	}
	r.head, r.n = (r.head+k)%wireSlots, r.n-k
	return r.burst[:k]
}

// wallEcho is an echo server that never blocks: step redeems whatever the
// server's operations completed and issues the next ones.
type wallEcho struct {
	t           testing.TB
	l           *LibOS
	conn        core.QDesc
	accept, pop core.QToken
	pushes      []wallPush // echoes not yet acknowledged, oldest first
}

// wallPush is an echo in flight and the buffers it sends back.
type wallPush struct {
	qt  core.QToken
	sga core.SGArray
}

func newWallEcho(t testing.TB, l *LibOS, port uint16) *wallEcho {
	qd, err := l.Socket(core.SockStream)
	if err == nil {
		err = l.Bind(qd, l.Addr(port))
	}
	if err == nil {
		err = l.Listen(qd, 8)
	}
	e := &wallEcho{t: t, l: l}
	if err == nil {
		e.accept, err = l.Accept(qd)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// take redeems *qt if it has completed, clearing it.
func (e *wallEcho) take(qt *core.QToken) (core.QEvent, bool) {
	if *qt == core.InvalidQToken {
		return core.QEvent{}, false
	}
	ev, done, err := e.l.TryTake(*qt)
	if err == nil {
		err = ev.Err
	}
	if err != nil {
		e.t.Fatalf("echo server: %v", err)
	}
	if done {
		*qt = core.InvalidQToken
	}
	return ev, done
}

// step reports whether it found anything completed.
func (e *wallEcho) step() bool {
	var err error
	worked := false
	if ev, ok := e.take(&e.accept); ok {
		e.conn, worked = ev.NewQD, true
		e.pop, err = e.l.Pop(e.conn)
	}
	if ev, ok := e.take(&e.pop); ok {
		worked = true
		if len(ev.SGA.Segs) == 0 { // end of stream
			err = e.l.Close(e.conn)
		} else {
			var qt core.QToken
			qt, err = e.l.Push(e.conn, ev.SGA)
			e.pushes = append(e.pushes, wallPush{qt, ev.SGA})
			if err == nil {
				e.pop, err = e.l.Pop(e.conn)
			}
		}
	}
	for len(e.pushes) > 0 {
		if _, ok := e.take(&e.pushes[0].qt); !ok {
			break
		}
		e.pushes[0].sga.Free()
		n := copy(e.pushes, e.pushes[1:])
		e.pushes[n] = wallPush{}
		e.pushes, worked = e.pushes[:n], true
	}
	if err != nil {
		e.t.Fatalf("echo server: %v", err)
	}
	return worked
}

// wallPair is a client stack connected to an echo server's stack on the
// wall clock. The test's goroutine is the client's application; the
// client's Park runs the server.
type wallPair struct {
	t      testing.TB
	cli    *LibOS
	qd     core.QDesc
	ab, ba *wireRing
	out    []byte // what a round trip reads back into
}

func newWallPair(t testing.TB) *wallPair {
	host := &wallHost{WallClock: sim.NewWallClock(), timers: &timerHeap{}}
	p := &wallPair{t: t, ab: newWireRing(), ba: newWireRing()}
	pa := &wirePort{mac: simnet.MAC{2, 0, 0, 0, 0, 1}, tx: p.ab, rx: p.ba}
	pb := &wirePort{mac: simnet.MAC{2, 0, 0, 0, 0, 2}, tx: p.ba, rx: p.ab}
	p.cli = newLibOS(host, host.timers.arm, sim.NewRand(1), "cli", pa, DefaultConfig(ipA))
	srv := newLibOS(host, host.timers.arm, sim.NewRand(2), "srv", pb, DefaultConfig(ipB))
	p.cli.SeedARP(ipB, pb.mac)
	srv.SeedARP(ipA, pa.mac)
	echo := newWallEcho(t, srv, 80)
	host.serve = func() bool {
		worked := srv.Step()
		return echo.step() || worked
	}

	qd, err := p.cli.Socket(core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	qt, err := p.cli.Connect(qd, srv.Addr(80))
	p.wait(qt, err)
	p.qd = qd
	return p
}

// wait redeems qt, failing the test unless the call that returned it and
// the operation succeeded within ten seconds.
func (p *wallPair) wait(qt core.QToken, err error) core.QEvent {
	one := [1]core.QToken{qt}
	if err == nil {
		var ev core.QEvent
		if _, ev, err = p.cli.WaitAny(one[:], 10*time.Second); err == nil {
			err = ev.Err
		}
		if err == nil {
			return ev
		}
	}
	p.t.Fatal(err)
	return core.QEvent{}
}

// roundTrip pushes msg and pops until as many bytes have come back,
// returning them in p.out.
func (p *wallPair) roundTrip(msg []byte) []byte {
	if cap(p.out) < len(msg) {
		p.out = make([]byte, len(msg))
	}
	out := p.out[:len(msg)]
	buf := memory.CopyFrom(p.cli.Heap(), msg)
	p.wait(p.cli.Push(p.qd, core.SGA(buf)))
	buf.Free()
	for n := 0; n < len(out); {
		ev := p.wait(p.cli.Pop(p.qd))
		if len(ev.SGA.Segs) == 0 {
			p.t.Fatalf("end of stream after %d of %d bytes", n, len(out))
		}
		for _, s := range ev.SGA.Segs {
			n += copy(out[n:], s.Bytes())
		}
		ev.SGA.Free()
	}
	return out
}

// Catnip runs on a host that is not the simulator: a 64 B and a 64 KiB echo
// come back byte for byte, and the stack answers nil for its sim.Node.
func TestCatnipOnWallClock(t *testing.T) {
	p := newWallPair(t)
	if p.cli.Node() != nil {
		t.Error("a stack on the wall host reports a simulated node")
	}
	for _, size := range []int{64, 64 << 10} {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*7 + i>>8)
		}
		if got := p.roundTrip(msg); !bytes.Equal(got, msg) {
			t.Errorf("a %d-byte echo came back changed", size)
		}
	}
	t.Logf("the wire dropped %d frames; %d retransmissions", p.ab.drops+p.ba.drops, p.cli.Stats().TCPRetransmits)
}

// wallEchoAllocs is the most Go heap objects one warmed 64-byte round trip
// over the wall host may cost, both stacks and both applications counted.
// The host allocates nothing per timer or frame, so the count is Catnip's
// and its applications': the four core.Ops behind the client's push and
// pop and the server's pop and push, the SGA segment slice each pop hands
// its application, and the one the client's push is made of. Measured: 7.
// Lower it when the number falls.
const wallEchoAllocs = 7

func TestWallEchoAllocs(t *testing.T) {
	p := newWallPair(t)
	msg := make([]byte, 64)
	rt := func() { p.roundTrip(msg) }
	for i := 0; i < 64; i++ {
		rt() // queues, the token table and the tx frame reach their size
	}
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	avg := testing.AllocsPerRun(runs, rt)
	runtime.ReadMemStats(&m1)
	t.Logf("%.1f objects, %.0f bytes per round trip", avg, float64(m1.TotalAlloc-m0.TotalAlloc)/(runs+1))
	if avg > wallEchoAllocs {
		t.Errorf("a 64-byte round trip on the wall host allocates %.1f objects, want at most %d", avg, wallEchoAllocs)
	}
}

// BenchmarkCatnipWallEcho64 is a 64-byte echo round trip between two Catnip
// stacks on the wall host: Catnip's wall-clock cost with no simulator under
// it.
func BenchmarkCatnipWallEcho64(b *testing.B) {
	p := newWallPair(b)
	msg := make([]byte, 64)
	for i := 0; i < 64; i++ {
		p.roundTrip(msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.roundTrip(msg)
	}
}
