package demi_test

// The PDPIX call contract, checked once over every library OS.
//
// core.LibOS documents one order of call-level checks and one rule for a
// refused call: it did not happen — no outstanding qtoken, token and
// descriptor numbering as before, the offered buffer still the caller's.
// core.FrontEnd is the only implementation; this table drives catnap,
// catnip, catloop, catmint, catmem, cattree and demi.Combined through it and
// requires the documented sentinel for every refusal.
//
// The token rows say what a qtoken is worth once it is not an outstanding
// operation of the libOS it is shown to — redeemed, re-minted over, never
// minted, minted elsewhere: ErrBadQToken, nothing consumed, nothing else
// disturbed.
//
// The lifecycle table below does the same for Close: DESIGN.md §3 states
// once what closing a queue does to parked operations, to undelivered data
// and to the peer, and rows L1–L4 and L6 hold every libOS to it.
//
// These are the two seeds of ROADMAP item 6's conformance suite: the
// model-based generator grows from the worlds, the refusal table and the
// lifecycle rows.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/catloop"
	"demikernel/internal/catmem"
	"demikernel/internal/catmint"
	"demikernel/internal/catnap"
	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
	"demikernel/internal/wire"
)

// endpoint is one libOS instance of a world.
type endpoint struct {
	os     demi.LibOS
	tables []*core.TokenTable // every table a call on os can mint in
	queues *core.QDescTable   // the table its socket descriptors live in
	addr   core.Addr          // where it listens and peers dial
}

// state names the type of the queue behind a socket descriptor.
func (e *endpoint) state(qd core.QDesc) string {
	q, ok := e.queues.Lookup(qd)
	if !ok {
		return "closed"
	}
	return fmt.Sprintf("%T", q)
}

// world is one libOS configuration: a client and (when the libOS has
// sockets) a server it can reach, plus how to run their applications.
type world struct {
	name     string
	cli, srv *endpoint
	logs     bool // cli can Open a storage log
	// listener and conn are the types a socket descriptor holds after
	// Listen, and after Connect or an accept: one object per queue state.
	listener, conn string
	// pinsHeap: the stack posts its receive buffers from the application
	// heap (Catmint), so the live count never returns to zero.
	pinsHeap bool
	// foreign mints a token on another instance of the libOS. Worlds with a
	// server leave it nil: the server mints one before the client runs.
	foreign func() core.QToken
	// run executes the two applications to completion. The server calls
	// listening once peers may dial.
	run func(srv func(listening func()), cli func())
}

var (
	ipA = wire.IPAddr{10, 9, 0, 1}
	ipB = wire.IPAddr{10, 9, 0, 2}
)

// simRun runs the applications on their simulated nodes. The server is
// spawned first and runs until it parks in its accept wait, so it is
// listening before the client's first libcall.
func simRun(eng *sim.Engine, srvNode, cliNode *sim.Node) func(func(func()), func()) {
	return func(srv func(listening func()), cli func()) {
		if srvNode != nil {
			eng.Spawn(srvNode, func() { srv(func() {}) })
		}
		eng.Spawn(cliNode, cli)
		eng.Run()
	}
}

// netOS is a network libOS with its front end's tables in reach.
type netOS interface {
	demi.NetOS
	Queues() *core.QDescTable
}

func plain(os netOS, addr core.Addr) *endpoint {
	return &endpoint{os: os, tables: []*core.TokenTable{os.Tokens()}, queues: os.Queues(), addr: addr}
}

func catnipPair(eng *sim.Engine) (srv, cli *catnip.LibOS) {
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("srv"), eng.NewNode("cli")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 8192, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 8192, 0)
	srv = catnip.New(na, pa, catnip.DefaultConfig(ipA))
	cli = catnip.New(nb, pb, catnip.DefaultConfig(ipB))
	srv.SeedARP(ipB, pb.MAC())
	cli.SeedARP(ipA, pa.MAC())
	return srv, cli
}

func worlds(t *testing.T) []world {
	var ws []world

	{
		eng := sim.NewEngine(51)
		srv, cli := catnipPair(eng)
		ws = append(ws, world{name: "catnip", listener: "*catnip.tcpListener", conn: "*catnip.tcpConn",
			srv: plain(srv, srv.Addr(7000)), cli: plain(cli, cli.Addr(7000)),
			run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		eng := sim.NewEngine(52)
		hub := catloop.NewHub(eng)
		srv := catloop.New(hub, eng.NewNode("srv"), ipA)
		cli := catloop.New(hub, eng.NewNode("cli"), ipB)
		ws = append(ws, world{name: "catloop", listener: "*catnip.tcpListener", conn: "*catnip.tcpConn",
			srv: plain(srv, srv.Addr(7000)), cli: plain(cli, cli.Addr(7000)),
			run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		eng := sim.NewEngine(53)
		reg := rdmadev.NewRegistry(simnet.NewSwitch(eng, simnet.DefaultSwitch()))
		book := catmint.NewAddrBook()
		na, nb := eng.NewNode("srv"), eng.NewNode("cli")
		srv := catmint.New(na, reg.NewNIC(na, simnet.DefaultLink(), 0), catmint.DefaultConfig(book))
		cli := catmint.New(nb, reg.NewNIC(nb, simnet.DefaultLink(), 0), catmint.DefaultConfig(book))
		srv.RegisterAddr(core.Addr{IP: ipA})
		cli.RegisterAddr(core.Addr{IP: ipB})
		ws = append(ws, world{name: "catmint", pinsHeap: true, listener: "*catmint.listener", conn: "*catmint.conn",
			srv: plain(srv, core.Addr{IP: ipA, Port: 7000}), cli: plain(cli, core.Addr{IP: ipB, Port: 7000}),
			run: simRun(eng, na, nb)})
	}
	{
		eng := sim.NewEngine(54)
		r := catmem.NewRegion(eng)
		srv, cli := r.New(eng.NewNode("srv")), r.New(eng.NewNode("cli"))
		at := core.Addr{Port: 7000}
		ws = append(ws, world{name: "catmem", listener: "*catmem.listener", conn: "*catmem.conn",
			srv: plain(srv, at), cli: plain(cli, at), run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		eng := sim.NewEngine(55)
		n := eng.NewNode("stor")
		l := cattree.New(n, spdkdev.New(n, spdkdev.OptaneParams(), 1<<16))
		other := eng.NewNode("other")
		l2 := cattree.New(other, spdkdev.New(other, spdkdev.OptaneParams(), 1<<16))
		ws = append(ws, world{name: "cattree", logs: true,
			cli: &endpoint{os: l, tables: []*core.TokenTable{l.Tokens()}}, run: simRun(eng, nil, n),
			foreign: func() core.QToken { return must(l2.Pop(must(l2.Queue()))) }})
	}
	{
		eng := sim.NewEngine(56)
		srv, cli := catnipPair(eng)
		mk := func(l *catnip.LibOS) *endpoint {
			n := l.Node()
			c := demi.NewCombined(l, cattree.New(n, spdkdev.New(n, spdkdev.OptaneParams(), 1<<16)))
			return &endpoint{os: c, tables: []*core.TokenTable{c.Tokens()}, queues: l.Queues(), addr: l.Addr(7000)}
		}
		ws = append(ws, world{name: "combined", logs: true, listener: "*catnip.tcpListener", conn: "*catnip.tcpConn",
			srv: mk(srv), cli: mk(cli),
			run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		// Catnap runs on the real OS: two instances over loopback TCP, one
		// application thread each.
		srv, cli := catnap.New(""), catnap.New(t.TempDir())
		t.Cleanup(srv.Shutdown)
		t.Cleanup(cli.Shutdown)
		at := core.Addr{Port: 42680}
		ws = append(ws, world{name: "catnap", logs: true, listener: "*catnap.listenQueue", conn: "*catnap.tcpQueue",
			srv: plain(srv, at), cli: plain(cli, at),
			run: func(srvMain func(func()), cliMain func()) {
				up := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); srvMain(func() { close(up) }) }()
				go func() { defer wg.Done(); <-up; cliMain() }()
				wg.Wait()
			}})
	}
	return ws
}

// must unwraps a set-up call that has no reason to fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// app wraps one endpoint's libcalls with the test's bookkeeping.
type app struct {
	t      *testing.T
	os     demi.LibOS
	tables []*core.TokenTable // the endpoint's, for the issue sequence
	mq     core.QDesc         // an in-memory queue, the probe's
}

func (a *app) buf() core.SGArray { return core.SGA(memory.CopyFrom(a.os.Heap(), []byte("contract"))) }

// refusedPush runs a push that must be refused with a fresh buffer, then
// checks the caller still owns it — the libOS took no reference — and
// frees it.
func (a *app) refusedPush(call func(core.SGArray) (core.QToken, error)) func() error {
	return func() error {
		a.t.Helper()
		sga := a.buf()
		_, err := call(sga)
		if b := sga.Segs[0]; !b.AppOwned() || b.IOOwned() {
			a.t.Errorf("a refused push kept the buffer (app-owned %v, io-owned %v)", b.AppOwned(), b.IOOwned())
		}
		sga.Free()
		return err
	}
}

// wait redeems qt and returns its event.
func (a *app) wait(what string, qt core.QToken, err error) core.QEvent {
	a.t.Helper()
	if err != nil {
		a.t.Errorf("%s: %v", what, err)
		return core.QEvent{Err: err}
	}
	ev, err := a.os.Wait(qt)
	if err != nil {
		a.t.Errorf("%s: wait: %v", what, err)
		ev.Err = err
	}
	return ev
}

// roundTrip pushes a buffer through the in-memory queue and pops it back,
// returning the two tokens it minted and redeemed, the pop's last.
func (a *app) roundTrip() (pop, push core.QToken) {
	a.t.Helper()
	sent := a.buf()
	pop, err := a.os.Pop(a.mq)
	if err != nil {
		a.t.Errorf("pop(mq): %v", err)
	}
	push, err = a.os.Push(a.mq, sent)
	if ev := a.wait("push(mq)", push, err); ev.Err != nil {
		a.t.Errorf("push(mq) completed with %v", ev.Err)
	}
	ev := a.wait("pop(mq)", pop, nil)
	if len(ev.SGA.Segs) != 1 || ev.SGA.Segs[0] != sent.Segs[0] {
		a.t.Errorf("in-memory queue did not hand the pushed buffer over: %+v", ev)
	}
	ev.SGA.Free()
	return pop, push
}

// mem is the network-side probe: the table still mints and redeems.
func (a *app) mem() { a.roundTrip() }

// popEOF pops a log at its end, which completes at once: the storage-side
// probe.
func (a *app) popEOF(log core.QDesc) func() {
	return func() {
		a.t.Helper()
		qt, err := a.os.Pop(log)
		if ev := a.wait("pop(log)", qt, err); ev.Err != nil || len(ev.SGA.Segs) != 0 {
			a.t.Errorf("pop at the end of an empty log: %+v", ev)
		}
	}
}

// issued is how many operations the endpoint's tables have numbered.
func (a *app) issued() (n uint64) {
	for _, tbl := range a.tables {
		n += tbl.Issued()
	}
	return n
}

// refuse requires call to fail with want and to be invisible to later
// numbering: the issue sequence — the number an operation's spans carry; a
// token's own value is a slot and a generation and says nothing of order —
// stands where it stood, and the probe that follows, minting in the table
// the refused call would have, still completes and redeems.
func (a *app) refuse(what string, want error, probe func(), call func() error) {
	a.t.Helper()
	before := a.issued()
	if err := call(); !errors.Is(err, want) {
		a.t.Errorf("%s = %v, want %v", what, err, want)
	}
	if after := a.issued(); after != before {
		a.t.Errorf("%s consumed a token number: %d issued before it, %d after", what, before, after)
	}
	probe()
}

// tokenRows presents the libOS with every kind of token that is not one of
// its outstanding operations. foreign was minted by another instance.
func (a *app) tokenRows(foreign core.QToken) {
	t, os := a.t, a.os
	// A token's low 24 bits name its slot, the bits above them the slot's
	// generation (core/token.go).
	const slotBits, slotMask = 24, 1<<24 - 1
	lq, err := os.Queue()
	if err != nil {
		t.Errorf("queue: %v", err)
		return
	}
	live, err := os.Pop(lq) // outstanding throughout: what a bad token must not disturb
	if err != nil {
		t.Errorf("pop(queue): %v", err)
	}
	// Alone and behind an outstanding token; a zero timeout, so that a
	// token taken for an outstanding operation is a failure and not a hang.
	bad := func(what string, qt core.QToken) {
		t.Helper()
		for _, set := range [][]core.QToken{{qt}, {live, qt}} {
			if i, _, err := os.WaitAny(set, 0); i != -1 || !errors.Is(err, core.ErrBadQToken) {
				t.Errorf("wait_any(%d tokens, the last %s) = %d, %v, want ErrBadQToken", len(set), what, i, err)
			}
		}
	}

	pop, push := a.roundTrip()
	bad("a redeemed push", push)
	bad("a redeemed pop", pop)
	// The slot freed last is minted next: the stale token fails, the new
	// operation completes and redeems once.
	again, err := os.Pop(a.mq)
	if err != nil || again == pop || again&slotMask != pop&slotMask {
		t.Errorf("pop(mq) = %#x, %v; want the slot of %#x at its next generation", again, err, pop)
	}
	bad("a token whose slot has been re-minted", pop)
	sent := a.buf()
	pqt, err := os.Push(a.mq, sent)
	a.wait("push(mq)", pqt, err)
	if ev := a.wait("pop(mq) in a re-minted slot", again, nil); len(ev.SGA.Segs) != 1 || ev.SGA.Segs[0] != sent.Segs[0] {
		t.Errorf("the re-minted slot's operation: %+v", ev)
	}
	sent.Free()
	bad("the re-minted slot's token, redeemed", again)

	bad("InvalidQToken", core.InvalidQToken)
	bad("an index past the table", slotMask)
	bad("an outstanding index at another generation", live+1<<slotBits)
	bad("an outstanding token with bit 63 set", live|1<<63)
	if _, here := a.tables[0].Lookup(foreign); here {
		t.Errorf("test set-up: the other instance's token %#x names an operation here too", foreign)
	} else {
		bad("a token minted by another instance", foreign)
	}
	// An outstanding operation of this very table, minted for another
	// tenant: the wait redeems as the host tenant, and tenancy is strict
	// equality (TryTakeAs's issuer compare).
	{
		const other = 7
		tbl := a.tables[0]
		tq, err := os.Queue()
		if err != nil {
			t.Errorf("queue: %v", err)
			return
		}
		tbl.SetIssuer(other)
		theirs, err := os.Pop(tq)
		tbl.SetIssuer(0)
		if err != nil {
			t.Errorf("pop(queue) for tenant %d: %v", other, err)
		}
		bad("another tenant's outstanding token", theirs)
		if err := os.Close(tq); err != nil {
			t.Errorf("close(queue): %v", err)
		}
		if ev, done, err := tbl.TryTakeAs(theirs, other); !done || err != nil || !errors.Is(ev.Err, core.ErrQueueClosed) {
			t.Errorf("tenant %d redeeming its closed pop = %+v, %v, %v", other, ev, done, err)
		}
	}

	// None of it touched the outstanding operation.
	sent = a.buf()
	pqt, err = os.Push(lq, sent)
	a.wait("push(queue)", pqt, err)
	if ev := a.wait("the pop outstanding throughout", live, nil); len(ev.SGA.Segs) != 1 || ev.SGA.Segs[0] != sent.Segs[0] {
		t.Errorf("the pop outstanding throughout: %+v", ev)
	}
	sent.Free()
	if err := os.Close(lq); err != nil {
		t.Errorf("close(queue): %v", err)
	}
}

// refusals drives every refused call on one descriptor class.
func (a *app) refusals(w world) {
	t, os := a.t, a.os
	var err error
	if a.mq, err = os.Queue(); err != nil {
		t.Errorf("queue: %v", err)
		return
	}
	mem := a.mem
	const bad = core.QDesc(9999)
	peer := core.Addr{IP: ipA, Port: 9}
	qt := func(_ core.QToken, err error) error { return err }
	push := a.refusedPush

	// Unknown descriptor.
	a.refuse("bind(bad)", core.ErrBadQDesc, mem, func() error { return os.Bind(bad, peer) })
	a.refuse("listen(bad)", core.ErrBadQDesc, mem, func() error { return os.Listen(bad, 1) })
	a.refuse("accept(bad)", core.ErrBadQDesc, mem, func() error { return qt(os.Accept(bad)) })
	a.refuse("connect(bad)", core.ErrBadQDesc, mem, func() error { return qt(os.Connect(bad, peer)) })
	a.refuse("pop(bad)", core.ErrBadQDesc, mem, func() error { return qt(os.Pop(bad)) })
	a.refuse("close(bad)", core.ErrBadQDesc, mem, func() error { return os.Close(bad) })
	a.refuse("push(bad)", core.ErrBadQDesc, mem, push(func(s core.SGArray) (core.QToken, error) { return os.Push(bad, s) }))
	a.refuse("pushto(bad)", core.ErrBadQDesc, mem, push(func(s core.SGArray) (core.QToken, error) { return os.PushTo(bad, s, peer) }))

	// An empty push is refused before the descriptor is looked at.
	for _, qd := range []core.QDesc{bad, a.mq} {
		a.refuse("push(empty)", core.ErrEmptySGA, mem, func() error { return qt(os.Push(qd, core.SGArray{})) })
		a.refuse("pushto(empty)", core.ErrEmptySGA, mem, func() error { return qt(os.PushTo(qd, core.SGArray{}, peer)) })
	}

	// Capabilities an in-memory queue lacks.
	a.refuse("bind(mq)", core.ErrNotSupported, mem, func() error { return os.Bind(a.mq, peer) })
	a.refuse("listen(mq)", core.ErrNotSupported, mem, func() error { return os.Listen(a.mq, 1) })
	a.refuse("accept(mq)", core.ErrNotSupported, mem, func() error { return qt(os.Accept(a.mq)) })
	a.refuse("connect(mq)", core.ErrNotSupported, mem, func() error { return qt(os.Connect(a.mq, peer)) })
	a.refuse("pushto(mq)", core.ErrNotSupported, mem, push(func(s core.SGArray) (core.QToken, error) { return os.PushTo(a.mq, s, peer) }))

	// A refused Socket or Open consumes no descriptor.
	q1, _ := os.Queue()
	a.refuse("socket(unknown type)", core.ErrNotSupported, mem, func() error { _, err := os.Socket(core.SockType(99)); return err })
	if w.srv == nil {
		a.refuse("socket on a storage-only libOS", core.ErrNotSupported, mem, func() error { _, err := os.Socket(core.SockStream); return err })
	}
	if !w.logs {
		a.refuse("open without a storage stack", core.ErrNotSupported, mem, func() error { _, err := os.Open("log"); return err })
	}
	q2, _ := os.Queue()
	if q2 != q1+1 {
		t.Errorf("refused Socket/Open consumed a descriptor: queues %d then %d", q1, q2)
	}
	for _, qd := range []core.QDesc{q1, q2} {
		if err := os.Close(qd); err != nil {
			t.Errorf("close(queue %d): %v", qd, err)
		}
	}

	if w.srv != nil {
		// A stream socket before it is connected.
		sock, err := os.Socket(core.SockStream)
		if err != nil {
			t.Errorf("socket: %v", err)
			return
		}
		a.refuse("push before connect", core.ErrNotBound, mem, push(func(s core.SGArray) (core.QToken, error) { return os.Push(sock, s) }))
		a.refuse("pop before connect", core.ErrNotBound, mem, func() error { return qt(os.Pop(sock)) })
		a.refuse("accept on a non-listener", core.ErrNotSupported, mem, func() error { return qt(os.Accept(sock)) })
		a.refuse("pushto on a stream socket", core.ErrNotSupported, mem, push(func(s core.SGArray) (core.QToken, error) { return os.PushTo(sock, s, peer) }))
		if err := os.Close(sock); err != nil {
			t.Errorf("close(sock): %v", err)
		}
		a.refuse("double close", core.ErrBadQDesc, mem, func() error { return os.Close(sock) })
	}

	if w.logs {
		log, err := os.Open("contract")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		stor := a.popEOF(log)
		badLog := log + 1000
		a.refuse("pop(bad log)", core.ErrBadQDesc, stor, func() error { return qt(os.Pop(badLog)) })
		a.refuse("push(bad log)", core.ErrBadQDesc, stor, push(func(s core.SGArray) (core.QToken, error) { return os.Push(badLog, s) }))
		a.refuse("push(bad log, empty)", core.ErrEmptySGA, stor, func() error { return qt(os.Push(badLog, core.SGArray{})) })
		a.refuse("push(log, empty)", core.ErrEmptySGA, stor, func() error { return qt(os.Push(log, core.SGArray{})) })
		a.refuse("pushto(log, empty)", core.ErrEmptySGA, stor, func() error { return qt(os.PushTo(log, core.SGArray{}, peer)) })
		a.refuse("pushto(log)", core.ErrNotSupported, stor, push(func(s core.SGArray) (core.QToken, error) { return os.PushTo(log, s, peer) }))
		a.refuse("bind(log)", core.ErrNotSupported, stor, func() error { return os.Bind(log, peer) })
		a.refuse("listen(log)", core.ErrNotSupported, stor, func() error { return os.Listen(log, 1) })
		a.refuse("accept(log)", core.ErrNotSupported, stor, func() error { return qt(os.Accept(log)) })
		a.refuse("connect(log)", core.ErrNotSupported, stor, func() error { return qt(os.Connect(log, peer)) })
		if err := os.Close(log); err != nil {
			t.Errorf("close(log): %v", err)
		}
		a.refuse("double close(log)", core.ErrBadQDesc, mem, func() error { return os.Close(log) })
	}
}

// onConnection drives the refusals that need an established connection.
func (a *app) onConnection(conn core.QDesc, peer core.Addr) {
	os, mem := a.os, a.mem
	qt := func(_ core.QToken, err error) error { return err }
	a.refuse("accept on a connection", core.ErrNotSupported, mem, func() error { return qt(os.Accept(conn)) })
	// L6: a connection is not a socket any more.
	a.refuse("bind on a connection", core.ErrNotSupported, mem, func() error { return os.Bind(conn, peer) })
	a.refuse("listen on a connection", core.ErrNotSupported, mem, func() error { return os.Listen(conn, 1) })
	a.refuse("connect on a connection", core.ErrNotSupported, mem, func() error { return qt(os.Connect(conn, peer)) })
	a.refuse("pushto on a connection", core.ErrNotSupported, mem,
		a.refusedPush(func(s core.SGArray) (core.QToken, error) { return os.PushTo(conn, s, peer) }))
	a.refuse("push(conn, empty)", core.ErrEmptySGA, mem, func() error { return qt(os.Push(conn, core.SGArray{})) })
}

func TestPDPIXContract(t *testing.T) {
	for _, w := range worlds(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var foreign core.QToken // minted by another instance of the libOS
			if w.foreign != nil {
				foreign = w.foreign()
			}
			server := func(listening func()) {
				a := &app{t: t, os: w.srv.os, tables: w.srv.tables}
				os := a.os
				a.mq, _ = os.Queue()
				lqd := a.listen(w.srv.addr)
				// A token for the client to show its own libOS, minted
				// before the client runs and still good here afterwards.
				fq := must(os.Queue())
				foreign = must(os.Pop(fq))
				defer func() {
					if err := os.Close(fq); err != nil {
						t.Errorf("server close(%d): %v", fq, err)
					}
					a.closedOp("the pop whose token the client was shown", a.wait("pop(queue)", foreign, nil))
				}()
				listening()
				qt := func(_ core.QToken, err error) error { return err }
				if got := w.srv.state(lqd); got != w.listener {
					t.Errorf("after Listen the descriptor holds %s, want %s", got, w.listener)
				}
				a.refuse("connect on a listener", core.ErrNotSupported, a.mem, func() error { return qt(os.Connect(lqd, w.cli.addr)) })
				// L6: neither is a listener.
				a.refuse("listen on a listener", core.ErrNotSupported, a.mem, func() error { return os.Listen(lqd, 8) })
				a.refuse("bind on a listener", core.ErrNotSupported, a.mem, func() error { return os.Bind(lqd, w.srv.addr) })
				a.refuse("pop on a listener", core.ErrNotBound, a.mem, func() error { return qt(os.Pop(lqd)) })
				aqt, err := os.Accept(lqd)
				ev := a.wait("accept", aqt, err)
				if ev.Err != nil {
					return
				}
				conn := ev.NewQD
				if got := w.srv.state(conn); got != w.conn {
					t.Errorf("the accepted descriptor holds %s, want %s", got, w.conn)
				}
				a.onConnection(conn, w.cli.addr)
				pqt, err := os.Pop(conn)
				if ev := a.wait("pop for EOF", pqt, err); ev.Err == nil && len(ev.SGA.Segs) != 0 {
					t.Errorf("server expected EOF, got %+v", ev)
					ev.SGA.Free()
				}
				for _, qd := range []core.QDesc{conn, lqd, a.mq} {
					if err := os.Close(qd); err != nil {
						t.Errorf("server close(%d): %v", qd, err)
					}
				}
			}
			client := func() {
				a := &app{t: t, os: w.cli.os, tables: w.cli.tables}
				os := a.os
				a.refusals(w)
				a.tokenRows(foreign)
				if w.srv != nil {
					qd, err := os.Socket(core.SockStream)
					if err != nil {
						t.Errorf("client socket: %v", err)
					}
					cqt, err := os.Connect(qd, w.srv.addr)
					if ev := a.wait("connect", cqt, err); ev.Err != nil {
						t.Errorf("connect completed with %v", ev.Err)
					} else {
						if got := w.cli.state(qd); got != w.conn {
							t.Errorf("after Connect the descriptor holds %s, want %s", got, w.conn)
						}
						a.onConnection(qd, w.srv.addr)
					}
					if err := os.Close(qd); err != nil {
						t.Errorf("client close: %v", err)
					}
				}
				if err := os.Close(a.mq); err != nil {
					t.Errorf("close(mq): %v", err)
				}
			}
			w.run(server, client)
			w.settled(t)
		})
	}
}

// settled is how every row ends: no operation outstanding in any token
// table, no buffer live on any heap.
func (w world) settled(t *testing.T) {
	t.Helper()
	for _, e := range []*endpoint{w.srv, w.cli} {
		if e == nil {
			continue
		}
		for i, tbl := range e.tables {
			if n := tbl.Outstanding(); n != 0 {
				t.Errorf("table %d: %d operations left outstanding", i, n)
			}
		}
		if n := e.os.Heap().LiveObjects(); n != 0 && !w.pinsHeap {
			t.Errorf("%d heap objects still live: a buffer was kept or leaked", n)
		}
	}
}

// --- The Close contract (DESIGN.md §3, "Queue lifecycle") ---

// patience bounds every wait of a lifecycle row, in the world's own time
// (virtual on the simulated stacks, wall clock on Catnap): a token that has
// not completed by then is reported as the hang the rows exist to rule out.
const patience = 2 * time.Second

// within redeems qt like wait, but gives up after patience.
func (a *app) within(what string, qt core.QToken, err error) core.QEvent {
	a.t.Helper()
	if err != nil {
		a.t.Errorf("%s: %v", what, err)
		return core.QEvent{Err: err}
	}
	_, ev, err := a.os.WaitAny([]core.QToken{qt}, patience)
	if err != nil {
		a.t.Errorf("%s: never completed: %v", what, err)
		ev.Err = err
	}
	return ev
}

// until keeps the libOS stepping until the other application raises flag.
func (a *app) until(what string, flag *atomic.Bool) {
	a.t.Helper()
	for waited := time.Duration(0); !flag.Load(); waited += 50 * time.Microsecond {
		if waited > patience {
			a.t.Errorf("%s: the peer never got there", what)
			return
		}
		a.os.WaitAny(nil, 50*time.Microsecond)
	}
}

// ended requires ev to be how a pop learns its connection is over: end of
// stream or an error, never data.
func (a *app) ended(what string, ev core.QEvent) {
	a.t.Helper()
	if ev.Err == nil && len(ev.SGA.Segs) != 0 {
		a.t.Errorf("%s: popped %d bytes from a connection that is gone", what, ev.SGA.TotalLen())
		ev.SGA.Free()
	}
}

// closedOp requires ev to be the completion Close gives a parked operation.
func (a *app) closedOp(what string, ev core.QEvent) {
	a.t.Helper()
	if !errors.Is(ev.Err, core.ErrQueueClosed) {
		a.t.Errorf("%s completed with %+v, want ErrQueueClosed", what, ev)
		ev.SGA.Free()
	}
}

// listen opens the server's listening socket.
func (a *app) listen(at core.Addr) core.QDesc {
	a.t.Helper()
	lqd, err := a.os.Socket(core.SockStream)
	if err != nil {
		a.t.Errorf("server socket: %v", err)
	}
	if err := a.os.Bind(lqd, at); err != nil {
		a.t.Errorf("bind: %v", err)
	}
	if err := a.os.Listen(lqd, 8); err != nil {
		a.t.Errorf("listen: %v", err)
	}
	return lqd
}

// close releases descriptors that must still be open.
func (a *app) close(qds ...core.QDesc) {
	a.t.Helper()
	for _, qd := range qds {
		if err := a.os.Close(qd); err != nil {
			a.t.Errorf("close(%d): %v", qd, err)
		}
	}
}

// lifecycleRow is one scenario: the two applications and the flags they
// sequence each other with.
type lifecycleRow struct {
	name string
	srv  func(a *app, w world, f *flags, listening func())
	cli  func(a *app, w world, f *flags)
}

// flags order the two applications of a row. A waiting application polls
// (until), so its libOS keeps stepping — which every row needs anyway.
type flags struct{ srvReady, cliReady, cliDone atomic.Bool }

var lifecycleRows = []lifecycleRow{
	{
		// L1: Close with a pop parked fails the pop; what the peer sends
		// afterwards is the stack's to release, and nothing breaks.
		name: "L1 close(conn) with a pop parked",
		srv: func(a *app, w world, f *flags, listening func()) {
			os := a.os
			lqd := a.listen(w.srv.addr)
			listening()
			aqt, err := os.Accept(lqd)
			conn := a.within("accept", aqt, err).NewQD
			first, err1 := os.Pop(conn)
			second, err2 := os.Pop(conn)
			if err1 != nil || err2 != nil {
				a.t.Errorf("pop: %v, %v", err1, err2)
			}
			a.close(conn)
			a.closedOp("the parked pop", a.within("parked pop", first, nil))
			f.srvReady.Store(true)
			a.until("client finishes", &f.cliDone) // the 64 bytes arrive for a descriptor that is gone
			a.closedOp("the pop redeemed after the peer pushed", a.within("parked pop", second, nil))
			a.close(lqd)
		},
		cli: func(a *app, w world, f *flags) {
			os := a.os
			qd, _ := os.Socket(core.SockStream)
			cqt, err := os.Connect(qd, w.srv.addr)
			if ev := a.within("connect", cqt, err); ev.Err != nil {
				a.t.Errorf("connect completed with %v", ev.Err)
			}
			a.until("server closes", &f.srvReady)
			sga := core.SGA(memory.CopyFrom(os.Heap(), make([]byte, 64)))
			pqt, err := os.Push(qd, sga)
			a.within("push after the peer's close", pqt, err) // completes or fails on its own
			if sga.Segs[0].AppOwned() {
				sga.Free() // a network push hands the buffer back; a Catmem queue has freed it
			}
			pop, err := os.Pop(qd)
			a.ended("pop after the peer's close", a.within("pop", pop, err))
			a.close(qd)
		},
	},
	{
		// L2: Close with an accept parked fails the accept; whoever dials
		// afterwards is refused or sees the end of the stream.
		name: "L2 close(listener) with an accept parked",
		srv: func(a *app, w world, f *flags, listening func()) {
			lqd := a.listen(w.srv.addr)
			listening()
			aqt, err := a.os.Accept(lqd)
			if err != nil {
				a.t.Errorf("accept: %v", err)
			}
			a.close(lqd)
			a.closedOp("the parked accept", a.within("parked accept", aqt, nil))
			f.srvReady.Store(true)
			a.until("client finishes", &f.cliDone)
		},
		cli: func(a *app, w world, f *flags) {
			os := a.os
			a.until("server closes", &f.srvReady)
			qd, _ := os.Socket(core.SockStream)
			cqt, err := os.Connect(qd, w.srv.addr)
			if ev := a.within("connect after the listener closed", cqt, err); ev.Err == nil {
				pop, err := os.Pop(qd)
				a.ended("pop on a connection nobody listens for", a.within("pop", pop, err))
			}
			a.close(qd)
		},
	},
	{
		// L3: closing a listener hangs up on the connections nobody
		// accepted, so their peers' pops complete.
		name: "L3 close(listener) with a connection never accepted",
		srv: func(a *app, w world, f *flags, listening func()) {
			lqd := a.listen(w.srv.addr)
			listening()
			a.until("client connects", &f.cliReady)
			a.close(lqd)
			a.until("client finishes", &f.cliDone)
		},
		cli: func(a *app, w world, f *flags) {
			os := a.os
			qd, _ := os.Socket(core.SockStream)
			cqt, err := os.Connect(qd, w.srv.addr)
			if ev := a.within("connect", cqt, err); ev.Err != nil {
				a.t.Errorf("connect completed with %v", ev.Err)
			}
			pop, err := os.Pop(qd)
			f.cliReady.Store(true)
			a.ended("the never-accepted peer's pop", a.within("parked pop", pop, err))
			a.close(qd)
		},
	},
	{
		// L4: a connect closed in flight completes with ErrQueueClosed, its
		// descriptor stays closed, and the server sees no connection or one
		// that has already ended. (Catmem's and Catnap's connects complete
		// inside the call: there only the ended connection is checked.)
		name: "L4 connect, then close before it completes",
		srv: func(a *app, w world, f *flags, listening func()) {
			os := a.os
			lqd := a.listen(w.srv.addr)
			listening()
			aqt, err := os.Accept(lqd)
			if err != nil {
				a.t.Errorf("accept: %v", err)
			}
			a.until("client closes", &f.cliReady)
			if _, ev, err := os.WaitAny([]core.QToken{aqt}, 100*time.Millisecond); err == nil && ev.Err == nil {
				conn := ev.NewQD
				pop, err := os.Pop(conn)
				ev := a.within("pop", pop, err)
				a.t.Logf("the server accepted the abandoned connection; its first pop: %d bytes, err %v", ev.SGA.TotalLen(), ev.Err)
				a.ended("first pop on the abandoned connection", ev)
				a.close(conn, lqd)
			} else if errors.Is(err, core.ErrTimeout) {
				a.t.Logf("the server saw no connection")
				a.close(lqd) // the accept fails here, unredeemed but complete
			} else {
				a.t.Errorf("accept: %+v, %v", ev, err)
			}
			f.srvReady.Store(true)
		},
		cli: func(a *app, w world, f *flags) {
			os := a.os
			before := w.cli.queues.Len()
			qd, _ := os.Socket(core.SockStream)
			cqt, err := os.Connect(qd, w.srv.addr)
			a.close(qd)
			if ev := a.within("connect closed in flight", cqt, err); w.name != "catmem" && w.name != "catnap" {
				a.closedOp("the connect", ev)
			}
			if got := w.cli.state(qd); got != "closed" || w.cli.queues.Len() != before {
				a.t.Errorf("the closed descriptor came back as %s (%d descriptors, %d before)", got, w.cli.queues.Len(), before)
			}
			f.cliReady.Store(true)
			a.until("server finishes", &f.srvReady) // the peer is told: keep the stack running
		},
	},
}

func TestPDPIXLifecycle(t *testing.T) {
	for _, row := range lifecycleRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			for _, w := range worlds(t) {
				w := w
				if w.srv == nil {
					continue // a storage-only libOS has no connections
				}
				t.Run(w.name, func(t *testing.T) {
					var f flags
					w.run(func(listening func()) {
						a := &app{t: t, os: w.srv.os}
						row.srv(a, w, &f, listening)
					}, func() {
						a := &app{t: t, os: w.cli.os}
						row.cli(a, w, &f)
						f.cliDone.Store(true)
					})
					w.settled(t)
				})
			}
		})
	}
}
