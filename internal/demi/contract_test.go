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
// This is the seed of ROADMAP item 5's conformance suite: the model-based
// generator grows from the worlds and the refusal table below.

import (
	"errors"
	"sync"
	"testing"

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
	addr   core.Addr          // where it listens and peers dial
}

// world is one libOS configuration: a client and (when the libOS has
// sockets) a server it can reach, plus how to run their applications.
type world struct {
	name     string
	cli, srv *endpoint
	logs     bool // cli can Open a storage log
	// routed: control calls on a storage descriptor are not checked.
	// demi.Combined sends every control call to its network side, where a
	// storage descriptor does not exist.
	routed bool
	// pinsHeap: the stack posts its receive buffers from the application
	// heap (Catmint), so the live count never returns to zero.
	pinsHeap bool
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

func plain(os demi.NetOS, addr core.Addr) *endpoint {
	return &endpoint{os: os, tables: []*core.TokenTable{os.Tokens()}, addr: addr}
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
		ws = append(ws, world{name: "catnip", srv: plain(srv, srv.Addr(7000)), cli: plain(cli, cli.Addr(7000)),
			run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		eng := sim.NewEngine(52)
		hub := catloop.NewHub(eng)
		srv := catloop.New(hub, eng.NewNode("srv"), ipA)
		cli := catloop.New(hub, eng.NewNode("cli"), ipB)
		ws = append(ws, world{name: "catloop", srv: plain(srv, srv.Addr(7000)), cli: plain(cli, cli.Addr(7000)),
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
		ws = append(ws, world{name: "catmint", pinsHeap: true,
			srv: plain(srv, core.Addr{IP: ipA, Port: 7000}), cli: plain(cli, core.Addr{IP: ipB, Port: 7000}),
			run: simRun(eng, na, nb)})
	}
	{
		eng := sim.NewEngine(54)
		r := catmem.NewRegion(eng)
		srv, cli := r.New(eng.NewNode("srv")), r.New(eng.NewNode("cli"))
		at := core.Addr{Port: 7000}
		ws = append(ws, world{name: "catmem", srv: plain(srv, at), cli: plain(cli, at), run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		eng := sim.NewEngine(55)
		n := eng.NewNode("stor")
		l := cattree.New(n, spdkdev.New(n, spdkdev.OptaneParams(), 1<<16))
		ws = append(ws, world{name: "cattree", logs: true,
			cli: &endpoint{os: l, tables: []*core.TokenTable{l.Tokens()}}, run: simRun(eng, nil, n)})
	}
	{
		eng := sim.NewEngine(56)
		srv, cli := catnipPair(eng)
		mk := func(l *catnip.LibOS) *endpoint {
			n := l.Node()
			c := demi.NewCombined(l, cattree.New(n, spdkdev.New(n, spdkdev.OptaneParams(), 1<<16)))
			return &endpoint{os: c, tables: []*core.TokenTable{c.Net.Tokens(), c.Stor.Tokens()}, addr: l.Addr(7000)}
		}
		ws = append(ws, world{name: "combined", logs: true, routed: true, srv: mk(srv), cli: mk(cli),
			run: simRun(eng, srv.Node(), cli.Node())})
	}
	{
		// Catnap runs on the real OS: two instances over loopback TCP, one
		// application thread each.
		srv, cli := catnap.New(""), catnap.New(t.TempDir())
		t.Cleanup(srv.Shutdown)
		t.Cleanup(cli.Shutdown)
		at := core.Addr{Port: 42680}
		ws = append(ws, world{name: "catnap", logs: true, srv: plain(srv, at), cli: plain(cli, at),
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

// app wraps one endpoint's libcalls with the test's bookkeeping.
type app struct {
	t  *testing.T
	os demi.LibOS
	mq core.QDesc // an in-memory queue, the token-numbering probe
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
// returning the first and last token it minted.
func (a *app) roundTrip() (first, last core.QToken) {
	a.t.Helper()
	sent := a.buf()
	pop, err := a.os.Pop(a.mq)
	if err != nil {
		a.t.Errorf("pop(mq): %v", err)
	}
	push, err := a.os.Push(a.mq, sent)
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

// popEOF pops a log at its end, which completes at once: the storage-side
// numbering probe.
func (a *app) popEOF(log core.QDesc) func() (core.QToken, core.QToken) {
	return func() (core.QToken, core.QToken) {
		a.t.Helper()
		qt, err := a.os.Pop(log)
		if ev := a.wait("pop(log)", qt, err); ev.Err != nil || len(ev.SGA.Segs) != 0 {
			a.t.Errorf("pop at the end of an empty log: %+v", ev)
		}
		return qt, qt
	}
}

// refuse requires call to fail with want and to leave token numbering
// alone: the probe's tokens before and after are consecutive.
func (a *app) refuse(what string, want error, probe func() (core.QToken, core.QToken), call func() error) {
	a.t.Helper()
	_, before := probe()
	if err := call(); !errors.Is(err, want) {
		a.t.Errorf("%s = %v, want %v", what, err, want)
	}
	if after, _ := probe(); after != before+1 {
		a.t.Errorf("%s consumed a token number: probe minted %d, then %d", what, before, after)
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
	mem := a.roundTrip
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
		badLog := log + 1000 // keeps Combined's storage tag
		a.refuse("pop(bad log)", core.ErrBadQDesc, stor, func() error { return qt(os.Pop(badLog)) })
		a.refuse("push(bad log)", core.ErrBadQDesc, stor, push(func(s core.SGArray) (core.QToken, error) { return os.Push(badLog, s) }))
		a.refuse("push(bad log, empty)", core.ErrEmptySGA, stor, func() error { return qt(os.Push(badLog, core.SGArray{})) })
		a.refuse("push(log, empty)", core.ErrEmptySGA, stor, func() error { return qt(os.Push(log, core.SGArray{})) })
		a.refuse("pushto(log, empty)", core.ErrEmptySGA, stor, func() error { return qt(os.PushTo(log, core.SGArray{}, peer)) })
		a.refuse("pushto(log)", core.ErrNotSupported, stor, push(func(s core.SGArray) (core.QToken, error) { return os.PushTo(log, s, peer) }))
		if !w.routed {
			a.refuse("bind(log)", core.ErrNotSupported, stor, func() error { return os.Bind(log, peer) })
			a.refuse("listen(log)", core.ErrNotSupported, stor, func() error { return os.Listen(log, 1) })
			a.refuse("accept(log)", core.ErrNotSupported, stor, func() error { return qt(os.Accept(log)) })
			a.refuse("connect(log)", core.ErrNotSupported, stor, func() error { return qt(os.Connect(log, peer)) })
		}
		if err := os.Close(log); err != nil {
			t.Errorf("close(log): %v", err)
		}
		a.refuse("double close(log)", core.ErrBadQDesc, mem, func() error { return os.Close(log) })
	}
}

// onConnection drives the refusals that need an established connection.
func (a *app) onConnection(conn core.QDesc, peer core.Addr) {
	os, mem := a.os, a.roundTrip
	qt := func(_ core.QToken, err error) error { return err }
	a.refuse("accept on a connection", core.ErrNotSupported, mem, func() error { return qt(os.Accept(conn)) })
	a.refuse("pushto on a connection", core.ErrNotSupported, mem,
		a.refusedPush(func(s core.SGArray) (core.QToken, error) { return os.PushTo(conn, s, peer) }))
	a.refuse("push(conn, empty)", core.ErrEmptySGA, mem, func() error { return qt(os.Push(conn, core.SGArray{})) })
}

func TestPDPIXContract(t *testing.T) {
	for _, w := range worlds(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			server := func(listening func()) {
				a := &app{t: t, os: w.srv.os}
				os := a.os
				a.mq, _ = os.Queue()
				lqd, err := os.Socket(core.SockStream)
				if err != nil {
					t.Errorf("server socket: %v", err)
				}
				if err := os.Bind(lqd, w.srv.addr); err != nil {
					t.Errorf("bind: %v", err)
				}
				if err := os.Listen(lqd, 8); err != nil {
					t.Errorf("listen: %v", err)
				}
				listening()
				qt := func(_ core.QToken, err error) error { return err }
				a.refuse("connect on a listener", core.ErrNotSupported, a.roundTrip, func() error { return qt(os.Connect(lqd, w.cli.addr)) })
				a.refuse("pop on a listener", core.ErrNotBound, a.roundTrip, func() error { return qt(os.Pop(lqd)) })
				aqt, err := os.Accept(lqd)
				ev := a.wait("accept", aqt, err)
				if ev.Err != nil {
					return
				}
				conn := ev.NewQD
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
				a := &app{t: t, os: w.cli.os}
				os := a.os
				a.refusals(w)
				if w.srv != nil {
					qd, err := os.Socket(core.SockStream)
					if err != nil {
						t.Errorf("client socket: %v", err)
					}
					cqt, err := os.Connect(qd, w.srv.addr)
					if ev := a.wait("connect", cqt, err); ev.Err != nil {
						t.Errorf("connect completed with %v", ev.Err)
					} else {
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
					t.Errorf("%d heap objects still live: a refused call kept a buffer", n)
				}
			}
		})
	}
}
