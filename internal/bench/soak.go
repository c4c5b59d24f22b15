package bench

// The soak driver. Every soak is a scenario — the chaos world under fault
// injection (chaos.go), the tenant worlds under attack (tenantchaos.go) and
// the mixed-workload world (below) — and the soak driver runs each the same way:
// it builds a seed's worlds and runs them to idle through the world driver
// (world.go), which requires every client settled; checks that no tenant
// charge is left, that every fault site in its table fired and every attack
// class in its table was rejected; dumps the telemetry in a fixed order; and
// runs the seed again to require a byte-identical dump. A soak that fails
// names a seed that replays the failure (paper §6.3).

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/apps/txnstore"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/tenant"
	"demikernel/internal/wire"
	"demikernel/internal/ycsb"
)

// soaks is every scenario, in the order TestSoaks runs them.
var soaks = []*soakScenario{chaosSoak, tenantSoak, mixedSoak}

const (
	soakMsgSize   = 64 // echo payload
	soakValueSize = 64 // KV value
	// soakAOF is every KV server's log. The storage stack is simulated, so
	// the name only keys a partition of the world's own disk.
	soakAOF      = "soak.aof"
	dialAttempts = 8
)

// The failures a soak client stops on: data that came back wrong, and an
// attack that was not rejected. A dead connection it survives by redialing.
var (
	errCorrupted = errors.New("data corrupted")
	errIsolation = errors.New("isolation breached")
)

// A soakScenario is a family of soak worlds: the seeds it replays, how one
// seed runs, and the demi-bench table its rows go into.
type soakScenario struct {
	name        string
	seeds       []uint64
	run         func(seed uint64) (*soakRun, error)
	title, note string
	header      []string
}

// soakRun is one seed's worlds after they ran, and its table row.
type soakRun struct {
	worlds []*soakWorld
	row    []string
}

// soakWorld is one soak world: what the world driver runs, checks and
// dumps, and what the soak driver checks beyond the clients settling.
type soakWorld struct {
	world
	label string // the world's header in the dump; "" when a seed runs one world

	// tenants, and the heap their bytes are charged to: no flow, token or
	// byte left charged.
	tenants    []*tenant.Tenant
	tenantHeap *memory.Heap

	faults  []faultSite   // every site must have fired
	attacks []attackCount // every class must have been rejected
}

// faultSite is one row of a world's fault table.
type faultSite struct {
	name string
	spec faults.Spec
}

// attackCount is how often a world rejected one attack class.
type attackCount struct {
	name string
	n    int
}

// sites makes the world's fault plan from table and returns its sites by
// name.
func (w *soakWorld) sites(seed uint64, table []faultSite) map[string]*faults.Site {
	w.plan, w.faults = faults.NewPlan(seed), table
	s := make(map[string]*faults.Site, len(table))
	for _, f := range table {
		s[f.name] = w.plan.Site(f.name, f.spec)
	}
	return s
}

// check returns the first way the world left a tenant charged or failed to
// cover its fault and attack tables.
func (w *soakWorld) check() error {
	for _, tn := range w.tenants {
		if used, flows, toks := w.tenantHeap.TenantStats(tn.ID()).Used, tn.Flows(), tn.InFlight(); used != 0 || flows != 0 || toks != 0 {
			return fmt.Errorf("tenant %d leaked %d heap bytes, %d flow and %d token charges", tn.ID(), used, flows, toks)
		}
	}
	for _, f := range w.faults {
		if w.plan.Fired(f.name) == 0 {
			return fmt.Errorf("fault site %q never fired", f.name)
		}
	}
	for _, a := range w.attacks {
		if a.n == 0 {
			return fmt.Errorf("attack class %q never rejected", a.name)
		}
	}
	return nil
}

// dump is every world's dump, each under its label.
func (r *soakRun) dump() string {
	var sb strings.Builder
	for _, w := range r.worlds {
		if w.label != "" {
			fmt.Fprintf(&sb, "--- %s ---\n", w.label)
		}
		w.dump(&sb, nil)
	}
	return sb.String()
}

// soak runs seed twice, checks both runs and requires byte-identical dumps.
// It returns the first run's table row.
func (sc *soakScenario) soak(seed uint64) ([]string, error) {
	rows, dumps := [2][]string{}, [2]string{}
	for i := range dumps {
		r, err := sc.run(seed)
		for j := 0; err == nil && j < len(r.worlds); j++ {
			err = r.worlds[j].check()
		}
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", sc.name, seed, err)
		}
		rows[i], dumps[i] = r.row, r.dump()
	}
	if dumps[0] != dumps[1] {
		return nil, fmt.Errorf("%s seed %d: replay diverged (telemetry dumps differ)", sc.name, seed)
	}
	return rows[0], nil
}

// table runs every seed of sc and returns its demi-bench table.
func (sc *soakScenario) table() ([]*Table, error) {
	t := &Table{Title: sc.title, Note: sc.note, Header: sc.header}
	for _, seed := range sc.seeds {
		row, err := sc.soak(seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append(append([]string{fmt.Sprint(seed)}, row...), "byte-identical")...)
	}
	return []*Table{t}, nil
}

// soakPattern is round r's echo payload: deterministic and
// position-dependent, so truncation, reordering and corruption all fail the
// compare.
func soakPattern(r int) []byte {
	b := make([]byte, soakMsgSize)
	for i := range b {
		b[i] = byte(r*31 + i*7 + 5)
	}
	return b
}

// retry makes up to dialAttempts attempts at connect and returns the first
// connection made (connections die under fault injection; a fresh one
// usually works).
func retry[T any](connect func() (T, error)) (c T, err error) {
	for a := 0; a < dialAttempts; a++ {
		if c, err = connect(); err == nil {
			return c, nil
		}
	}
	return c, fmt.Errorf("connect failed after %d attempts: %w", dialAttempts, err)
}

// dial connects a stream socket to server, retrying on a fresh socket.
func dial(l demi.LibOS, server core.Addr) (core.QDesc, error) {
	return retry(func() (core.QDesc, error) {
		qd, err := l.Socket(core.SockStream)
		if err != nil {
			return qd, err
		}
		cqt, err := l.Connect(qd, server)
		if err == nil {
			_, err = await(l, cqt)
		}
		if err != nil {
			l.Close(qd)
		}
		return qd, err
	})
}

// await waits for qt; the operation's own error is returned as the call's.
func await(l demi.LibOS, qt core.QToken) (core.QEvent, error) {
	ev, err := l.Wait(qt)
	if err == nil {
		err = ev.Err
	}
	return ev, err
}

// dialKV connects a KV client to server, retrying.
func dialKV(l demi.LibOS, server core.Addr) (*kv.Client, error) {
	return retry(func() (*kv.Client, error) { return kv.Dial(l, server) })
}

// echoClient is a verified echo client that outlives its connection: a round
// that fails for any reason but data integrity is counted, and the next
// round runs on a fresh connection.
type echoClient struct {
	l      demi.LibOS
	server core.Addr
	// Where the client's buffers come from and go back to: the libOS heap or
	// a tenant's region.
	alloc func([]byte) (*memory.Buf, error)
	free  func(*memory.Buf) error
	// handoff: a completed push moves the buffer to the popper (Catmem), so
	// the pusher frees it only if the push was refused.
	handoff  bool
	conn     core.QDesc
	ok, errs int
}

// heapClient is an echo client whose buffers come from its libOS's heap.
func heapClient(l demi.LibOS, server core.Addr, handoff bool) *echoClient {
	return &echoClient{l: l, server: server, handoff: handoff, free: (*memory.Buf).TryFree,
		alloc: func(p []byte) (*memory.Buf, error) { return memory.TryCopyFrom(l.Heap(), p) }}
}

func (c *echoClient) connect() (err error) {
	c.conn, err = dial(c.l, c.server)
	return err
}

// echo pushes round r's pattern and verifies the echo byte for byte. forge,
// when set, is handed the first pop's token before it is waited on, so a
// co-resident attacker can try to redeem it mid-flight; the round then
// proves the token still completes for its owner.
func (c *echoClient) echo(r int, forge func(core.QToken) error) error {
	want := soakPattern(r)
	msg, err := c.alloc(want)
	if err != nil {
		return fmt.Errorf("echo alloc: %w", err)
	}
	qt, err := c.l.Push(c.conn, core.SGA(msg))
	if err != nil {
		c.free(msg) // a refused push leaves the buffer here
		return err
	}
	_, err = await(c.l, qt)
	if !c.handoff {
		err = errors.Join(err, c.free(msg))
	}
	if err != nil {
		return err
	}
	got := make([]byte, 0, len(want))
	for len(got) < len(want) {
		pqt, err := c.l.Pop(c.conn)
		if err != nil {
			return err
		}
		if forge != nil {
			if err := forge(pqt); err != nil {
				return err
			}
			forge = nil
		}
		ev, err := await(c.l, pqt)
		if err != nil {
			return err
		}
		if len(ev.SGA.Segs) == 0 {
			return core.ErrQueueClosed
		}
		for _, b := range ev.SGA.Segs {
			got = append(got, b.Bytes()...)
			if err := c.free(b); err != nil {
				return err
			}
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("echo round %d: %w", r, errCorrupted)
	}
	return nil
}

// round runs round r. It fails only on corrupted data, a breached isolation
// or a connection it could not replace.
func (c *echoClient) round(r int, forge func(core.QToken) error) error {
	err := c.echo(r, forge)
	if err == nil {
		c.ok++
		return nil
	}
	c.errs++
	if errors.Is(err, errCorrupted) || errors.Is(err, errIsolation) {
		return err
	}
	c.l.Close(c.conn)
	return c.connect()
}

// run connects, runs rounds rounds and closes.
func (c *echoClient) run(rounds int) error {
	if err := c.connect(); err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		if err := c.round(r, nil); err != nil {
			return err
		}
	}
	return c.l.Close(c.conn)
}

// kvKeys is how many keys the soaks' KV clients cycle through.
const kvKeys = 16

func kvKey(k int) []byte { return []byte(fmt.Sprintf("chaos:key%02d", k)) }

// kvValue encodes (key, version) in the value and pads it with a pattern,
// so a read can verify both which write it observes and that no byte
// changed in flight or at rest.
func kvValue(k, ver int) []byte {
	v := []byte(fmt.Sprintf("key=%02d ver=%08d ", k, ver))
	for i := len(v); i < soakValueSize; i++ {
		v = append(v, byte(k*17+i*3+ver))
	}
	return v[:soakValueSize]
}

// mixedSoak runs an echo pair, a Redis pair with an AOF and a TxnStore
// cluster on one switch: eight hosts, three applications, two device
// classes, all interleaved through one engine — the cross-stack
// interference no single-application test reaches. It injects nothing.
var mixedSoak = &soakScenario{name: "mixed", seeds: []uint64{1234}, run: runMixed}

const mixedRounds = 300

func runMixed(seed uint64) (*soakRun, error) {
	tb := NewTestbed(seed, SwitchEth())
	echoSrv := tb.NewStack(SysCatnipTCP(), "echo-srv", wire.IPAddr{10, 20, 0, 1})
	echoCli := tb.NewStack(SysCatnipTCP(), "echo-cli", wire.IPAddr{10, 20, 0, 2})
	kvSrv := tb.NewStack(catnipCattreeTCP(), "kv-srv", wire.IPAddr{10, 20, 0, 3})
	kvCli := tb.NewStack(SysCatnipTCP(), "kv-cli", wire.IPAddr{10, 20, 0, 4})
	txnCli := tb.NewStack(SysCatnipTCP(), "txn-cli", wire.IPAddr{10, 20, 0, 5})
	w := &soakWorld{world: world{title: "mixed", eng: tb.Eng, untilIdle: true,
		stacks: []*Stack{echoSrv, echoCli, kvSrv, kvCli, txnCli}}}
	var txnAddrs []core.Addr
	for i := 0; i < 3; i++ {
		st := tb.NewStack(SysCatnipTCP(), fmt.Sprintf("txn-replica%d", i), wire.IPAddr{10, 20, 0, byte(6 + i)})
		r, addr := txnstore.NewReplica(), core.Addr{IP: st.IP, Port: 7000}
		w.servers = append(w.servers, proc{st, func() error { return r.Serve(st.OS, addr) }})
		w.stacks, txnAddrs = append(w.stacks, st), append(txnAddrs, addr)
	}
	tb.SeedARP()

	echoAddr := core.Addr{IP: echoSrv.IP, Port: 7100}
	kvAddr := core.Addr{IP: kvSrv.IP, Port: 6379}
	var kvStats kv.ServerStats
	w.servers = append(w.servers,
		proc{echoSrv, func() error { return echo.Server(echoSrv.OS, echo.ServerConfig{Addr: echoAddr}) }},
		proc{kvSrv, func() error {
			return kv.Server(kvSrv.OS, kv.ServerConfig{Addr: kvAddr, AOFName: soakAOF}, &kvStats)
		}})
	w.clients = []proc{
		{echoCli, func() error {
			_, err := echo.Client(echoCli.OS, echoAddr, 128, mixedRounds, 10, echoCli.Node)
			return err
		}},
		{kvCli, func() error { return mixedKV(kvCli.OS, kvAddr) }},
		{txnCli, func() error { return mixedTxn(txnCli.OS, txnAddrs) }},
	}
	if err := w.run(); err != nil {
		return nil, err
	}
	if kvStats.AOFRecords == 0 {
		return nil, errors.New("kv AOF never written")
	}
	return &soakRun{worlds: []*soakWorld{w}, row: []string{fmt.Sprintf("%d AOF records", kvStats.AOFRecords)}}, nil
}

// mixedKV alternates SETs and GETs over 64 YCSB keys.
func mixedKV(l demi.LibOS, server core.Addr) error {
	c, err := kv.Dial(l, server)
	if err != nil {
		return err
	}
	defer c.Close()
	rng := sim.NewRand(5)
	for i := 0; i < mixedRounds; i++ {
		key := ycsb.Key(rng.Intn(64))
		if i%2 == 0 {
			err = c.Set(key, []byte("soak-value"))
		} else {
			_, err = c.Get(key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// mixedTxn runs read-modify-write transactions over 16 keys; each must
// commit.
func mixedTxn(l demi.LibOS, replicas []core.Addr) error {
	c, err := txnstore.Dial(l, replicas, sim.NewRand(6))
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < mixedRounds/3; i++ {
		txn := c.Begin()
		key := ycsb.Key(i % 16)
		v, err := txn.Get(key)
		if err != nil {
			return err
		}
		txn.Put(key, append(append([]byte(nil), v...), byte(i)))
		if ok, err := txn.Commit(); err != nil || !ok {
			return fmt.Errorf("txn commit %d: ok=%v err=%v", i, ok, err)
		}
	}
	return nil
}
