package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"demikernel/internal/apps/chain"
	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/catmem"
	"demikernel/internal/catnap"
	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
	"demikernel/internal/wire"
	"demikernel/internal/ycsb"
)

// A workload is one closed loop: one client, one outstanding request. The
// callers of a PDPIX libOS each wait for their reply, and the quantity of
// interest is what the Go code costs per request, not a saturation curve.
type workload struct {
	Name string
	Why  string
	// Clock is the libOS's own clock: "virtual" for the simulated
	// workloads (their modelled latency must repeat exactly), "wall" for
	// Catnap (no model: every latency is measured).
	Clock string
	// SliceReqs is the number of requests in one measured slice. Slices
	// are never cut; a shorter run has fewer of them.
	SliceReqs int
	// Procs is the GOMAXPROCS the workload runs at (README, "GOMAXPROCS").
	Procs func() int
	build func(in *inputs, tr *tracer) *world
}

func one() int { return 1 }

// twoThreads is Catnap's setting: one client thread, one server thread,
// nothing else.
func twoThreads() int { return min(runtime.NumCPU(), 2) }

var workloads = []workload{
	{Name: "tcp_echo_64b", Clock: "virtual", SliceReqs: 20000, Procs: one, build: buildTCPEcho(64, 1),
		Why: "smallest message over Catnip TCP: per-packet cost of catnip+wire+sched+core+memory dominates (paper Fig. 5)"},
	{Name: "tcp_stream_64k", Clock: "virtual", SliceReqs: 200, Procs: one, build: buildTCPEcho(64<<10, 1),
		Why: "64 KiB echoed as 45 MSS segments each way: per-segment work dominates, per-request work is diluted"},
	{Name: "tcp_fanin_1k", Clock: "virtual", SliceReqs: 1000, Procs: one, build: buildTCPEcho(64, 1024),
		Why: "1024 established connections visited in turn: cost is set by state that scales with connections"},
	{Name: "tcp_churn", Clock: "virtual", SliceReqs: 5000, Procs: one, build: buildTCPChurn,
		Why: "connect, one 64 B echo, close: handshake, coroutine spawns, port and TCB churn instead of steady state"},
	{Name: "catmem_chain", Clock: "virtual", SliceReqs: 20000, Procs: one, build: buildChain,
		Why: "client-relay-cache-KV over shared-memory queues: bypasses the TCP stack, NIC and fabric entirely"},
	{Name: "kv_aof_mixed", Clock: "virtual", SliceReqs: 15000, Procs: one, build: buildKV,
		Why: "RESP KV on Catnip x Cattree, Zipf keys, half GET half durable SET: writes beside reads, app code visible"},
	{Name: "catnap_echo_64b", Clock: "wall", SliceReqs: 7500, Procs: twoThreads, build: buildCatnap,
		Why: "64 B echo between two Catnap libOSes over real loopback TCP (not a real link): bypasses the simulator"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// inputs is everything a run derives from -seed. The program under test
// only ever sees these generated values.
type inputs struct {
	engSeed uint64
	pool    []byte   // payload bytes; request i sends a window of it
	order   []int    // fan-in visiting order / chain key order: one full cycle
	kvOps   []uint16 // kv: key index, top bit set for SET; cycled
	kvKeys  [][]byte
	shadow  []int32 // kv: pool offset of each key's last SET value
}

const (
	poolSize  = 1 << 20
	fanConns  = 1024
	chainKeys = 4096
	chainVal  = 64
	kvKeys    = 10000
	kvValue   = 64
	kvOpCycle = 1 << 20
	kvSetBit  = 1 << 15
)

func newInputs(seed uint64) *inputs {
	rng := sim.NewRand(seed)
	in := &inputs{engSeed: rng.Uint64(), pool: make([]byte, poolSize)}
	for i := 0; i < poolSize; i += 8 {
		binary.LittleEndian.PutUint64(in.pool[i:], rng.Uint64())
	}
	// kv values travel inside RESP bulk strings and are compared as bytes,
	// so any byte value is fine; keys are YCSB's printable form.
	in.order = make([]int, chainKeys)
	for i := range in.order {
		in.order[i] = i
	}
	for i := len(in.order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		in.order[i], in.order[j] = in.order[j], in.order[i]
	}
	zipf := ycsb.NewZipf(kvKeys, 0.99, rng.Fork())
	in.kvOps = make([]uint16, kvOpCycle)
	for i := range in.kvOps {
		in.kvOps[i] = uint16(zipf.Next())
		if rng.Bool(0.5) {
			in.kvOps[i] |= kvSetBit
		}
	}
	in.kvKeys = make([][]byte, kvKeys)
	for i := range in.kvKeys {
		in.kvKeys[i] = ycsb.Key(i)
	}
	in.shadow = make([]int32, kvKeys)
	return in
}

// payload returns request i's size bytes.
func (in *inputs) payload(i, size int) []byte {
	off := (i * 4099) % (poolSize - size)
	return in.pool[off : off+size]
}

// counters are the cumulative counts the packages already export, summed
// over the world's nodes; the harness takes deltas around the window.
type counters struct {
	SchedPolls, SchedEmpty                  uint64
	SimEvents                               uint64
	TxFrames, PureAcks                      uint64
	ZeroCopyTx, CopiedTx                    uint64
	Retransmits, RxDrops                    uint64
	HeapAllocs                              uint64
	CatmemStalls, CattreeAppends, AOFErrors uint64
}

// world is one built instance of a workload.
type world struct {
	// run starts the servers, runs client on the client's own thread of
	// control (a sim node's goroutine, or the caller's on Catnap) and
	// returns once everything has stopped.
	run func(client func())
	// The rest is valid inside client.
	connect  func() error // open connections, preload keys
	request  func(i int) (class int, err error)
	teardown func()
	now      func() sim.Time // the client libOS's clock
	counters func() counters
	// leaks reports, after run, every DMA heap's live objects.
	leaks func() int
	// client is the client node's trace, nil when untraced.
	client *nodeTrace
	// Fan-in only: wall ns per handshake and Go heap bytes per established
	// connection. Measuring the latter takes two forced GCs inside connect;
	// untimed is how long they took, so that setup_s can leave them out.
	connectWallNs, heapBytesPerConn float64
	untimed                         time.Duration
}

var errCorrupt = errors.New("reply does not match what was sent")

// echoOnce pushes payload on qd and pops until all of it has come back,
// comparing every byte.
func echoOnce(l demi.LibOS, qd core.QDesc, payload []byte) error {
	msg := l.Heap().Alloc(len(payload))
	copy(msg.Bytes(), payload)
	qt, err := l.Push(qd, core.SGA(msg))
	msg.Free() // the libOS holds its own reference while the push is in flight
	if err != nil {
		return err
	}
	if ev, err := l.Wait(qt); err != nil {
		return err
	} else if ev.Err != nil {
		return ev.Err
	}
	for got := 0; got < len(payload); {
		qt, err := l.Pop(qd)
		if err != nil {
			return err
		}
		ev, err := l.Wait(qt)
		if err != nil {
			return err
		}
		if ev.Err != nil {
			return ev.Err
		}
		if len(ev.SGA.Segs) == 0 {
			return core.ErrQueueClosed
		}
		ok := true
		for _, seg := range ev.SGA.Segs {
			b := seg.Bytes()
			if got+len(b) > len(payload) || !bytes.Equal(b, payload[got:got+len(b)]) {
				ok = false
			}
			got += len(b)
		}
		ev.SGA.Free()
		if !ok {
			return errCorrupt
		}
	}
	return nil
}

// dial opens one stream connection.
func dial(l demi.LibOS, to core.Addr) (core.QDesc, error) {
	qd, err := l.Socket(core.SockStream)
	if err != nil {
		return core.InvalidQD, err
	}
	qt, err := l.Connect(qd, to)
	if err != nil {
		return core.InvalidQD, err
	}
	ev, err := l.Wait(qt)
	if err != nil {
		return core.InvalidQD, err
	}
	if ev.Err != nil {
		l.Close(qd)
		return core.InvalidQD, ev.Err
	}
	return qd, nil
}

// The simulated testbed: the paper's CX-5 Ethernet path as DPDK sees it
// (1 µs per hop, 100 Gb/s) around an Arista 7060CX (450 ns) — the same
// figures internal/bench calibrates Figure 5 with.
var (
	linkDPDK  = simnet.LinkParams{Latency: 1000 * time.Nanosecond, BandwidthBps: 100e9}
	switchEth = simnet.SwitchParams{Latency: 450 * time.Nanosecond}
	serverIP  = wire.IPAddr{10, 9, 0, 1}
	clientIP  = wire.IPAddr{10, 9, 0, 2}
	serverTCP = core.Addr{IP: serverIP, Port: 7000}
)

// tcpPair is two simulated hosts with a Catnip stack each.
type tcpPair struct {
	eng              *sim.Engine
	srvNode, cliNode *sim.Node
	srvPort, cliPort *dpdkdev.Port
	srv, cli         *catnip.LibOS
	stor             *cattree.LibOS // server's storage stack, kv only
	srvOS, cliOS     demi.LibOS     // what the apps see: decorated when traced
	cliTrace         *nodeTrace
}

// newTCPPair builds the pair. With withStor the server is Catnip×Cattree on
// an Optane-parameter device. With a tracer, the client is node 0.
func newTCPPair(in *inputs, tr *tracer, withStor bool) *tcpPair {
	p := &tcpPair{eng: sim.NewEngine(in.engSeed)}
	sw := simnet.NewSwitch(p.eng, switchEth)
	p.cliNode, p.srvNode = p.eng.NewNode("client"), p.eng.NewNode("server")
	p.cliPort = dpdkdev.Attach(sw, p.cliNode, linkDPDK, 1<<16, 0)
	p.srvPort = dpdkdev.Attach(sw, p.srvNode, linkDPDK, 1<<16, 0)
	var cliDev, srvDev catnip.Device = p.cliPort, p.srvPort
	var cliT, srvT *nodeTrace
	if tr != nil {
		cliT, srvT = tr.node("client"), tr.node("server")
		cliDev, srvDev = &tracedDev{cliDev, cliT}, &tracedDev{srvDev, srvT}
		p.cliTrace = cliT
	}
	p.cli = catnip.NewOnDevice(p.cliNode, cliDev, catnip.DefaultConfig(clientIP))
	p.srv = catnip.NewOnDevice(p.srvNode, srvDev, catnip.DefaultConfig(serverIP))
	p.cli.SeedARP(serverIP, p.srvPort.MAC())
	p.srv.SeedARP(clientIP, p.cliPort.MAC())
	p.cliOS, p.srvOS = p.cli, p.srv
	if tr != nil {
		p.cliOS = &tracedOS{LibOS: p.cli, drv: p.cli, n: cliT}
		p.srvOS = &tracedOS{LibOS: p.srv, drv: p.srv, n: srvT}
	}
	if withStor {
		// 2^26 blocks: the harness default (2^20) fills mid-run and the
		// server exits. The device is sparse, so the size costs nothing.
		p.stor = cattree.New(p.srvNode, spdkdev.New(p.srvNode, spdkdev.OptaneParams(), 1<<26))
		var stor demi.StorOS = p.stor
		if tr != nil {
			stor = &tracedStor{stor, srvT}
		}
		comb := demi.NewCombined(p.srv, stor)
		p.srvOS = comb
		if tr != nil {
			p.srvOS = &tracedStorageOS{&tracedOS{LibOS: comb, drv: comb, n: srvT}, comb}
		}
	}
	return p
}

// run spawns server and client mains; when the client returns it lets the
// stacks drain (FINs, TIME_WAIT) for 50 ms of virtual time, then stops.
func (p *tcpPair) run(server, client func()) {
	p.eng.Spawn(p.srvNode, server)
	p.eng.Spawn(p.cliNode, func() {
		client()
		p.cli.WaitAny(nil, 50*time.Millisecond)
		p.eng.Stop()
	})
	p.eng.Run()
}

func (p *tcpPair) counters() counters {
	var c counters
	for _, l := range []*catnip.LibOS{p.cli, p.srv} {
		ss, st, hs := l.SchedStats(), l.Stats(), l.Heap().Stats()
		c.SchedPolls += ss.Polls
		c.SchedEmpty += ss.EmptyScans
		c.TxFrames += st.TxFrames
		c.PureAcks += st.PureAcks
		c.ZeroCopyTx += st.ZeroCopyTx
		c.CopiedTx += st.CopiedTx
		c.Retransmits += st.TCPRetransmits
		c.HeapAllocs += hs.Allocs
	}
	for _, port := range []*dpdkdev.Port{p.cliPort, p.srvPort} {
		ps := port.Stats()
		c.RxDrops += ps.RxNoMbuf + ps.RxRingFull
	}
	if p.stor != nil {
		ss := p.stor.SchedStats()
		c.SchedPolls += ss.Polls
		c.SchedEmpty += ss.EmptyScans
		c.CattreeAppends = p.stor.Stats().Appends
		c.HeapAllocs += p.stor.Heap().Stats().Allocs
	}
	c.SimEvents = p.eng.EventsRun()
	return c
}

func (p *tcpPair) leaks() int {
	n := p.cli.Heap().LiveObjects() + p.srv.Heap().LiveObjects()
	if p.stor != nil {
		n += p.stor.Heap().LiveObjects()
	}
	return n
}

func (p *tcpPair) world() *world {
	return &world{now: p.cli.Now, counters: p.counters, leaks: p.leaks, client: p.cliTrace}
}

// buildTCPEcho is tcp_echo_64b, tcp_stream_64k (size 64 KiB, the server
// framing whole messages) and tcp_fanin_1k (conns 1024).
func buildTCPEcho(size, conns int) func(*inputs, *tracer) *world {
	return func(in *inputs, tr *tracer) *world {
		p := newTCPPair(in, tr, false)
		cfg := echo.ServerConfig{Addr: serverTCP, MaxConns: conns + 16}
		if size > 1460 {
			cfg.MessageSize = size
		}
		w := p.world()
		w.run = func(client func()) {
			p.run(func() { echo.Server(p.srvOS, cfg) }, client)
		}
		qds := make([]core.QDesc, conns)
		// heapAfterGC is the Go heap in use after a collection; conns > 1
		// only, and outside setup_s.
		heapAfterGC := func() float64 {
			if conns == 1 {
				return 0
			}
			t0 := time.Now()
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			w.untimed += time.Since(t0)
			return float64(ms.HeapAlloc)
		}
		w.connect = func() error {
			before := heapAfterGC()
			t0 := time.Now()
			for c := range qds {
				qd, err := dial(p.cliOS, serverTCP)
				if err != nil {
					return fmt.Errorf("connection %d: %w", c, err)
				}
				qds[c] = qd
			}
			if conns > 1 {
				w.connectWallNs = float64(time.Since(t0)) / float64(conns)
				w.heapBytesPerConn = (heapAfterGC() - before) / float64(conns)
			}
			return nil
		}
		w.request = func(i int) (int, error) {
			qd := qds[0]
			if conns > 1 {
				qd = qds[in.order[i%len(in.order)]%conns]
			}
			return 0, echoOnce(p.cliOS, qd, in.payload(i, size))
		}
		w.teardown = func() {
			for _, qd := range qds {
				p.cliOS.Close(qd)
			}
		}
		return w
	}
}

// buildTCPChurn is tcp_churn: every request is its own connection.
func buildTCPChurn(in *inputs, tr *tracer) *world {
	p := newTCPPair(in, tr, false)
	w := p.world()
	w.run = func(client func()) {
		p.run(func() { echo.Server(p.srvOS, echo.ServerConfig{Addr: serverTCP, MaxConns: 64}) }, client)
	}
	w.connect = func() error { return nil }
	w.request = func(i int) (int, error) {
		qd, err := dial(p.cliOS, serverTCP)
		if err != nil {
			return 0, err
		}
		err = echoOnce(p.cliOS, qd, in.payload(i, 64))
		if cerr := p.cliOS.Close(qd); err == nil {
			err = cerr
		}
		return 0, err
	}
	w.teardown = func() {}
	return w
}

// buildKV is kv_aof_mixed: apps/kv over Catnip TCP × Cattree, the AOF
// durable before each SET reply.
func buildKV(in *inputs, tr *tracer) *world {
	p := newTCPPair(in, tr, true)
	var stats kv.ServerStats
	w := p.world()
	w.run = func(client func()) {
		p.run(func() {
			kv.Server(p.srvOS, kv.ServerConfig{Addr: serverTCP, AOFName: "appendonly.aof"}, &stats)
		}, client)
	}
	w.counters = func() counters {
		c := p.counters()
		c.AOFErrors = stats.AOFErrors
		return c
	}
	var c *kv.Client
	set := func(key, i int) error {
		off := (i * 4099) % (poolSize - kvValue)
		in.shadow[key] = int32(off)
		return c.Set(in.kvKeys[key], in.pool[off:off+kvValue])
	}
	w.connect = func() error {
		var err error
		if c, err = kv.Dial(p.cliOS, serverTCP); err != nil {
			return err
		}
		for k := 0; k < kvKeys; k++ {
			if err := set(k, k); err != nil {
				return fmt.Errorf("preload key %d: %w", k, err)
			}
		}
		return nil
	}
	w.request = func(i int) (int, error) {
		op := in.kvOps[i%kvOpCycle]
		key := int(op &^ kvSetBit)
		if op&kvSetBit != 0 {
			return 1, set(key, kvKeys+i)
		}
		got, err := c.Get(in.kvKeys[key])
		if err != nil {
			return 0, err
		}
		off := in.shadow[key]
		if !bytes.Equal(got, in.pool[off:off+kvValue]) {
			return 0, errCorrupt
		}
		return 0, nil
	}
	w.teardown = func() { c.Close() }
	return w
}

// buildChain is catmem_chain: apps/chain's relay, cache and KV stages on
// four nodes of one shared-memory region, zero-copy handoff between them.
// The client speaks the chain's documented frame format; after the first
// pass over the keys every request is served by the cache stage.
func buildChain(in *inputs, tr *tracer) *world {
	eng := sim.NewEngine(in.engSeed)
	region := catmem.NewRegion(eng)
	// The engine starts equal-clock nodes in creation order, and each stage
	// must be listening before its upstream dials: KV first, client last.
	// The tracer wants the client as its node 0.
	names := [4]string{"client", "relay", "cache", "kv"}
	var raw [4]*catmem.LibOS
	var os [4]demi.LibOS
	var cliTrace *nodeTrace
	for i := 3; i >= 0; i-- {
		raw[i] = region.New(eng.NewNode(names[i]))
		os[i] = raw[i]
	}
	if tr != nil {
		for i, name := range names {
			nt := tr.node(name)
			os[i] = &tracedOS{LibOS: raw[i], drv: raw[i], n: nt}
			if i == 0 {
				cliTrace = nt
			}
		}
	}
	cli := os[0]
	addrs := [3]core.Addr{{Port: 1}, {Port: 2}, {Port: 3}}
	var stage [3]chain.Stats
	w := &world{now: raw[0].Now, client: cliTrace}
	w.run = func(client func()) {
		eng.Spawn(raw[3].Node(), func() {
			chain.KV(os[3], addrs[2], true, chainKeys, chainVal, &stage[2], chain.Trace{})
		})
		eng.Spawn(raw[2].Node(), func() {
			chain.Cache(os[2], addrs[1], addrs[2], true, &stage[1], chain.Trace{})
		})
		eng.Spawn(raw[1].Node(), func() {
			chain.Relay(os[1], addrs[0], addrs[1], true, &stage[0], chain.Trace{})
		})
		eng.Spawn(raw[0].Node(), client)
		eng.Run() // closing the client's queue unwinds the stages one by one
	}
	w.counters = func() counters {
		c := counters{SimEvents: eng.EventsRun(), HeapAllocs: region.Heap().Stats().Allocs}
		for _, l := range raw {
			c.CatmemStalls += l.Stats().Stalls
		}
		return c
	}
	w.leaks = region.Heap().LiveObjects
	var qd core.QDesc
	w.connect = func() (err error) {
		qd, err = dial(cli, addrs[0])
		return err
	}
	w.request = func(i int) (int, error) {
		key := uint32(in.order[i%chainKeys])
		req := cli.Heap().Alloc(9)
		b := req.Bytes()
		binary.BigEndian.PutUint32(b[0:4], 5)
		b[4] = chain.OpGet
		binary.BigEndian.PutUint32(b[5:9], key)
		qt, err := cli.Push(qd, core.SGA(req)) // handoff: the queue now owns req
		if err != nil {
			req.Free()
			return 0, err
		}
		if ev, err := cli.Wait(qt); err != nil {
			return 0, err
		} else if ev.Err != nil {
			return 0, ev.Err
		}
		qt, err = cli.Pop(qd)
		if err != nil {
			return 0, err
		}
		ev, err := cli.Wait(qt)
		if err != nil {
			return 0, err
		}
		if ev.Err != nil {
			return 0, ev.Err
		}
		defer ev.SGA.Free()
		if len(ev.SGA.Segs) != 1 {
			return 0, errCorrupt
		}
		r := ev.SGA.Segs[0].Bytes()
		if len(r) != 9+chainVal || r[4] != chain.OpReply || binary.BigEndian.Uint32(r[5:9]) != key {
			return 0, errCorrupt
		}
		for j, v := range r[9:] {
			// The KV stage's deterministic store content.
			if v != byte(int(key)*31+j*7+3) {
				return 0, errCorrupt
			}
		}
		return 0, nil
	}
	w.teardown = func() { cli.Close(qd) }
	return w
}

// catnapDriver adapts Catnap, which redeems through its token table.
type catnapDriver struct{ *catnap.LibOS }

func (d catnapDriver) TryTake(qt core.QToken) (core.QEvent, bool, error) {
	return d.Tokens().TryTake(qt)
}

// buildCatnap is catnap_echo_64b: two Catnap libOSes in this process over
// real 127.0.0.1 TCP. Loopback, not a real link.
func buildCatnap(in *inputs, tr *tracer) *world {
	srv, cli := catnap.New(""), catnap.New("")
	var srvOS, cliOS demi.LibOS = srv, cli
	var cliTrace *nodeTrace
	if tr != nil {
		cliTrace = tr.node("client")
		cliOS = &tracedOS{LibOS: cli, drv: catnapDriver{cli}, n: cliTrace}
		srvOS = &tracedOS{LibOS: srv, drv: catnapDriver{srv}, n: tr.node("server")}
	}
	var addr core.Addr
	w := &world{now: cli.Now, client: cliTrace}
	w.run = func(client func()) {
		port, err := freePort()
		if err != nil {
			return // connect fails and reports it
		}
		addr = core.Addr{Port: port}
		done := make(chan struct{})
		go func() {
			defer close(done)
			echo.Server(srvOS, echo.ServerConfig{Addr: addr})
		}()
		client()
		// Give the server a moment to see the close and release its last
		// buffers, then stop it and wait for its thread to end.
		time.Sleep(20 * time.Millisecond)
		srv.Shutdown()
		cli.Shutdown()
		<-done
	}
	w.counters = func() counters {
		return counters{HeapAllocs: cli.Heap().Stats().Allocs}
	}
	w.leaks = func() int { return cli.Heap().LiveObjects() + srv.Heap().LiveObjects() }
	var qd core.QDesc
	w.connect = func() (err error) {
		// The server thread may not be listening yet.
		for try := 0; try < 500; try++ {
			if qd, err = dial(cliOS, addr); err == nil {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return err
	}
	w.request = func(i int) (int, error) { return 0, echoOnce(cliOS, qd, in.payload(i, 64)) }
	w.teardown = func() { cliOS.Close(qd) }
	return w
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (uint16, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return uint16(ln.Addr().(*net.TCPAddr).Port), nil
}
