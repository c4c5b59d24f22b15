package bench

// The chaos soak: four application pairs (Catnip echo, Redis-style KV with
// an AOF on Cattree/SPDK, Catmint echo over RDMA, and a co-located Catmem
// shared-memory echo) run concurrently on one switch while a deterministic
// fault plan injects every fault class the devices support — RX/TX stalls,
// link flaps, bit corruption and device resets on the DPDK port; I/O errors,
// latency spikes and torn writes on the SPDK disk; QP errors on the RDMA
// NIC; DMA-heap exhaustion; and ring-full stalls plus abrupt peer death on
// the shared-memory queues. Beside the checks every soak passes (soak.go), no
// accepted request may be lost or corrupted.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/catmem"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/faults"
	"demikernel/internal/rdmadev"
	"demikernel/internal/spdkdev"
	"demikernel/internal/wire"
)

// The chaos world's workload, sized so every fault site fires.
const (
	chaosEchoRounds = 2500  // Catnip TCP echo rounds
	chaosKVOps      = 1000  // KV operations, 2/3 SET and 1/3 GET
	chaosMintRounds = 1500  // Catmint RDMA echo rounds
	chaosShmRounds  = 20000 // Catmem shared-memory echo rounds
)

// chaosFaults is the chaos world's fault table. After keeps every site
// quiet through connection setup, Every-N triggers are deterministic in the
// op stream, and Max caps give the stack room to recover between faults.
var chaosFaults = []faultSite{
	{"dpdk.rx_stall", faults.Spec{After: time.Millisecond, Every: 2003, Duration: 20 * time.Microsecond, Max: 3}},
	{"dpdk.tx_stall", faults.Spec{After: time.Millisecond, Every: 293, Duration: 20 * time.Microsecond, Max: 3}},
	{"dpdk.corrupt", faults.Spec{After: time.Millisecond, Every: 211, Max: 6}},
	{"dpdk.reset", faults.Spec{After: 2 * time.Millisecond, Every: 701, Max: 2}},
	{"dpdk.link_flap", faults.Spec{After: time.Millisecond, Every: 401, Duration: 15 * time.Microsecond, Max: 2}},
	{"spdk.io_err", faults.Spec{After: time.Millisecond, Every: 89, Max: 4}},
	{"spdk.latency", faults.Spec{After: time.Millisecond, Every: 131, Duration: 100 * time.Microsecond, Max: 4}},
	{"spdk.torn_write", faults.Spec{After: time.Millisecond, Every: 223, Max: 2}},
	{"rdma.qp_error", faults.Spec{After: time.Millisecond, Every: 601, Max: 2}},
	{"mem.exhaust", faults.Spec{After: time.Millisecond, Every: 397, Max: 3}},
	{"catmem.ring_full", faults.Spec{After: time.Millisecond, Every: 283, Duration: 25 * time.Microsecond, Max: 3}},
	{"catmem.peer_death", faults.Spec{After: time.Millisecond, Every: 499, Max: 2}},
}

// chaosSoak is the chaos scenario; CI runs its seeds under -race.
var chaosSoak = &soakScenario{
	name:   "chaos",
	seeds:  []uint64{41, 42, 43},
	run:    runChaos,
	title:  "Chaos soak: deterministic fault injection across four stacks",
	note:   "every run twice per seed; 'replay' requires byte-identical telemetry dumps",
	header: []string{"seed", "echo ok/err", "kv ok/degr/err", "mint ok/err", "shm ok/err", "fault classes", "replay"},
}

// Chaos is the demi-bench runner.
func Chaos() ([]*Table, error) { return chaosSoak.table() }

// runChaos builds the chaos world, arms its fault table and runs every
// workload to completion.
func runChaos(seed uint64) (*soakRun, error) {
	tb := NewTestbed(seed, SwitchEth())
	echoSrv := tb.NewStack(SysCatnipTCP(), "echo-srv", wire.IPAddr{10, 30, 0, 1})
	echoCli := tb.NewStack(SysCatnipTCP(), "echo-cli", wire.IPAddr{10, 30, 0, 2})
	kvSrv := tb.NewStack(catnipCattreeTCP(), "kv-srv", wire.IPAddr{10, 30, 0, 3})
	kvCli := tb.NewStack(SysCatnipTCP(), "kv-cli", wire.IPAddr{10, 30, 0, 4})
	mintSrv := tb.NewStack(SysCatmint(0), "mint-srv", wire.IPAddr{10, 30, 0, 5})
	mintCli := tb.NewStack(SysCatmint(0), "mint-cli", wire.IPAddr{10, 30, 0, 6})
	tb.SeedARP()
	// Co-located shared-memory pair: same host, so no switch attachment —
	// only a catmem region between the two nodes.
	region := catmem.NewRegion(tb.Eng)
	shmSrv := region.New(tb.Eng.NewNode("shm-srv"))
	shmCli := region.New(tb.Eng.NewNode("shm-cli"))
	shmSrvSt, shmCliSt := &Stack{OS: shmSrv, Node: shmSrv.Node()}, &Stack{OS: shmCli, Node: shmCli.Node()}
	w := &soakWorld{world: world{title: "chaos", eng: tb.Eng, untilIdle: true,
		stacks: []*Stack{echoSrv, echoCli, kvSrv, kvCli, mintSrv, mintCli, shmSrvSt, shmCliSt}}}
	site := w.sites(seed, chaosFaults)

	echoCli.Port.SetFaults(dpdkdev.Faults{RxStall: site["dpdk.rx_stall"], TxStall: site["dpdk.tx_stall"]})
	echoSrv.Port.SetFaults(dpdkdev.Faults{Corrupt: site["dpdk.corrupt"], Reset: site["dpdk.reset"], LinkFlap: site["dpdk.link_flap"]})
	kvSrv.Disk.SetFaults(spdkdev.Faults{IOErr: site["spdk.io_err"], Latency: site["spdk.latency"], TornWrite: site["spdk.torn_write"]})
	mintSrv.NIC.SetFaults(rdmadev.Faults{QPError: site["rdma.qp_error"]})
	echoSrv.OS.Heap().SetAllocFault(func(int) bool { return site["mem.exhaust"].Fire(echoSrv.Node.Now()) })
	shmCli.SetFaults(catmem.Faults{RingFull: site["catmem.ring_full"], PeerDeath: site["catmem.peer_death"]})

	echoAddr := core.Addr{IP: echoSrv.IP, Port: 7100}
	kvAddr := core.Addr{IP: kvSrv.IP, Port: 6379}
	mintAddr := core.Addr{IP: mintSrv.IP, Port: 7200}
	shmAddr := core.Addr{Port: 7300}
	var kvStats kv.ServerStats
	w.servers = []proc{
		{echoSrv, func() error { return echo.Server(echoSrv.OS, echo.ServerConfig{Addr: echoAddr}) }},
		{kvSrv, func() error {
			return kv.Server(kvSrv.OS, kv.ServerConfig{Addr: kvAddr, AOFName: soakAOF}, &kvStats)
		}},
		{mintSrv, func() error { return echo.Server(mintSrv.OS, echo.ServerConfig{Addr: mintAddr}) }},
		{shmSrvSt, func() error { chaosShmServer(shmSrv, shmAddr); return nil }},
	}
	echoC, kvC := heapClient(echoCli.OS, echoAddr, false), &chaosKV{}
	mintC, shmC := heapClient(mintCli.OS, mintAddr, false), heapClient(shmCli, shmAddr, true)
	w.clients = []proc{
		{echoCli, func() error { return echoC.run(chaosEchoRounds) }},
		{kvCli, func() error { return kvC.run(kvCli.OS, kvAddr) }},
		{mintCli, func() error { return mintC.run(chaosMintRounds) }},
		{shmCliSt, func() error { return shmC.run(chaosShmRounds) }},
	}
	// The clients must settle (world.go); the catmem region's heap is the
	// shm client's, so it must drain too: every handed-off buffer has
	// exactly one owner, and peer-death teardown reclaims in-flight rings.
	if err := w.run(); err != nil {
		return nil, err
	}
	if kvStats.AOFErrors == 0 {
		return nil, errors.New("disk faults fired but the KV server never degraded an AOF write")
	}
	return &soakRun{worlds: []*soakWorld{w}, row: []string{
		fmt.Sprintf("%d/%d", echoC.ok, echoC.errs),
		fmt.Sprintf("%d/%d/%d", kvC.ok, kvC.degraded, kvC.errs),
		fmt.Sprintf("%d/%d", mintC.ok, mintC.errs),
		fmt.Sprintf("%d/%d", shmC.ok, shmC.errs),
		// The soak driver refuses the run unless every site fired.
		fmt.Sprintf("%d/%d", len(chaosFaults), len(chaosFaults)),
	}}, nil
}

// chaosShmServer echoes on a catmem listener forever, re-accepting after
// every teardown (peer death kills both endpoints; the client redials).
// Shared-memory ownership: the popped SGA is pushed back as-is and the
// push consumes it — the server never frees a successfully pushed buffer.
func chaosShmServer(l *catmem.LibOS, addr core.Addr) {
	qd, err := l.Socket(core.SockStream)
	if err != nil || errors.Join(l.Bind(qd, addr), l.Listen(qd, 8)) != nil {
		return
	}
	for {
		aqt, err := l.Accept(qd)
		if err != nil {
			return
		}
		ev, err := await(l, aqt)
		if err != nil {
			return // engine stopping
		}
		conn := ev.NewQD
		for {
			pqt, err := l.Pop(conn)
			if err != nil {
				break
			}
			pev, err := l.Wait(pqt)
			if err != nil {
				return
			}
			if pev.Err != nil || len(pev.SGA.Segs) == 0 {
				break // death or EOF: drop the conn, accept the next
			}
			wqt, err := l.Push(conn, pev.SGA)
			if err != nil {
				pev.SGA.Free() // call-level error: ownership stayed here
				break
			}
			if _, err := await(l, wqt); err != nil {
				break // failed push ops are freed by the queue
			}
		}
		l.Close(conn)
	}
}

// chaosKV is the chaos world's KV client: versioned SETs and verifying GETs
// (one op in three), then every key read back. An accepted write lost or
// corrupted fails the soak; a write the server refused because its AOF
// failed, and a dead connection, are counted and survived.
type chaosKV struct {
	ok, degraded, errs int
}

func (c *chaosKV) run(l demi.LibOS, server core.Addr) error {
	// A version is the op that wrote it, so one set holds every key's.
	attempted, lastOK := make(map[int]bool), make([]int, kvKeys)
	for i := range lastOK {
		lastOK[i] = -1
	}
	cl, err := dialKV(l, server)
	if err != nil {
		return err
	}
	redial := func() error {
		c.errs++
		cl.Close()
		cl, err = dialKV(l, server)
		return err
	}
	for i := 0; i < chaosKVOps; i++ {
		k := i % kvKeys
		if i%3 == 2 {
			v, gerr := cl.Get(kvKey(k))
			if gerr != nil {
				if err := redial(); err != nil {
					return err
				}
				continue
			}
			if err := checkVersion(k, v, attempted, lastOK[k]); err != nil {
				return err
			}
			c.ok++
			continue
		}
		attempted[i] = true
		switch serr := cl.Set(kvKey(k), kvValue(k, i)); {
		case serr == nil:
			lastOK[k] = i
			c.ok++
		case strings.Contains(serr.Error(), "aof write failed"):
			c.degraded++
		default:
			if err := redial(); err != nil {
				return err
			}
		}
	}
	// Every key must hold an intact attempted version at least as new as
	// its last acknowledged write.
	for k := 0; k < kvKeys; k++ {
		v, gerr := cl.Get(kvKey(k))
		if gerr != nil {
			if err := redial(); err != nil {
				return err
			}
			if v, gerr = cl.Get(kvKey(k)); gerr != nil {
				return fmt.Errorf("final readback of key %d: %w", k, gerr)
			}
		}
		if err := checkVersion(k, v, attempted, lastOK[k]); err != nil {
			return err
		}
	}
	cl.Close()
	return nil
}

// checkVersion verifies a GET of key k: it must be exactly the encoding of
// an attempted version no older than the last acknowledged write. (A write
// that errored at the client may still have been applied if only its reply
// was lost — hence "attempted", not "acknowledged".)
func checkVersion(k int, v []byte, attempted map[int]bool, lastOK int) error {
	var gotK, ver int
	switch _, err := fmt.Sscanf(string(v), "key=%02d ver=%08d", &gotK, &ver); {
	case v == nil && lastOK >= 0:
		return fmt.Errorf("key %d lost (last acked write ver=%d): %w", k, lastOK, errCorrupted)
	case v == nil:
		return nil
	case err != nil || gotK != k:
		return fmt.Errorf("key %d holds garbage %q: %w", k, v, errCorrupted)
	case ver < lastOK:
		return fmt.Errorf("key %d regressed to ver=%d (acked ver=%d): %w", k, ver, lastOK, errCorrupted)
	case !attempted[ver] || ver%kvKeys != k:
		return fmt.Errorf("key %d holds never-written ver=%d: %w", k, ver, errCorrupted)
	case !bytes.Equal(v, kvValue(k, ver)):
		return fmt.Errorf("key %d ver=%d: %w", k, ver, errCorrupted)
	}
	return nil
}
