package kv

import (
	"bytes"
	"testing"

	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
	"demikernel/internal/wire"
)

var (
	ipSrv = wire.IPAddr{10, 4, 0, 1}
	ipCli = wire.IPAddr{10, 4, 0, 2}
)

// cluster builds a server (Catnip×Cattree) and client (Catnip) pair.
func cluster(t *testing.T) (*sim.Engine, *demi.Combined, *catnip.LibOS, *spdkdev.Device) {
	t.Helper()
	eng := sim.NewEngine(51)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("kv-server"), eng.NewNode("kv-client")
	ps := dpdkdev.Attach(sw, ns, simnet.DefaultLink(), 8192, 0)
	pc := dpdkdev.Attach(sw, nc, simnet.DefaultLink(), 8192, 0)
	ls := catnip.New(ns, ps, catnip.DefaultConfig(ipSrv))
	lc := catnip.New(nc, pc, catnip.DefaultConfig(ipCli))
	ls.SeedARP(ipCli, pc.MAC())
	lc.SeedARP(ipSrv, ps.MAC())
	dev := spdkdev.New(ns, spdkdev.OptaneParams(), 1<<16)
	srv := demi.NewCombined(ls, cattree.New(ns, dev))
	return eng, srv, lc, dev
}

func TestKVServerGetSet(t *testing.T) {
	eng, srv, lc, _ := cluster(t)
	var stats ServerStats
	eng.Spawn(srv.Net.(*catnip.LibOS).Node(), func() {
		Server(srv, ServerConfig{Addr: core.Addr{IP: ipSrv, Port: 6379}}, &stats)
	})
	eng.Spawn(lc.Node(), func() {
		c, err := Dial(lc, core.Addr{IP: ipSrv, Port: 6379})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Set([]byte("name"), []byte("demikernel")); err != nil {
			t.Errorf("set: %v", err)
			return
		}
		v, err := c.Get([]byte("name"))
		if err != nil || !bytes.Equal(v, []byte("demikernel")) {
			t.Errorf("get = %q, %v", v, err)
		}
		if v, _ := c.Get([]byte("missing")); v != nil {
			t.Errorf("missing key returned %q", v)
		}
		r, err := c.Do([]byte("INCR"), []byte("ctr"))
		if err != nil || r.Int != 1 {
			t.Errorf("incr: %+v %v", r, err)
		}
		r, _ = c.Do([]byte("PING"))
		if r.Str != "PONG" {
			t.Errorf("ping: %+v", r)
		}
		c.Close()
	})
	eng.Run()
	if stats.Commands < 5 {
		t.Errorf("server saw %d commands", stats.Commands)
	}
}

func TestKVServerAOFDurabilityAndRecovery(t *testing.T) {
	eng, srv, lc, dev := cluster(t)
	var stats ServerStats
	eng.Spawn(srv.Net.(*catnip.LibOS).Node(), func() {
		Server(srv, ServerConfig{Addr: core.Addr{IP: ipSrv, Port: 6379}, AOFName: "appendonly.aof"}, &stats)
	})
	eng.Spawn(lc.Node(), func() {
		c, err := Dial(lc, core.Addr{IP: ipSrv, Port: 6379})
		if err != nil {
			return
		}
		c.Set([]byte("k1"), []byte("v1"))
		c.Set([]byte("k2"), []byte("v2"))
		c.Do([]byte("DEL"), []byte("k1"))
		c.Do([]byte("INCR"), []byte("n"))
		c.Close()
	})
	eng.Run()
	if stats.AOFRecords != 4 {
		t.Fatalf("AOF records = %d, want 4", stats.AOFRecords)
	}
	// 4 AOF records + 1 directory record for the new log name.
	if dev.Stats().Writes != 5 {
		t.Fatalf("device writes = %d, want 5 (fsync per write + directory)", dev.Stats().Writes)
	}

	// "Restart": replay the AOF into a fresh store on the same device.
	eng2 := sim.NewEngine(52)
	node := eng2.NewNode("restarted")
	// The device's durable blocks carry over; rebind it to the new node.
	dev2 := spdkdev.New(node, spdkdev.OptaneParams(), 1<<16)
	copyDevice(t, dev, dev2)
	stor := cattree.New(node, dev2)
	var replayed ServerStats
	store := NewStore()
	eng2.Spawn(node, func() {
		if err := stor.Mount(); err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		qd, _ := stor.Open("appendonly.aof")
		if err := replayAOF(stor, qd, store, &replayed); err != nil {
			t.Errorf("replay: %v", err)
		}
	})
	eng2.Run()
	if replayed.ReplayedRecords != 4 {
		t.Fatalf("replayed %d records, want 4", replayed.ReplayedRecords)
	}
	if got := store.Execute(Command{[]byte("GET"), []byte("k2")}); !bytes.Equal(got, BulkString([]byte("v2"))) {
		t.Errorf("k2 after replay = %q", got)
	}
	if got := store.Execute(Command{[]byte("GET"), []byte("k1")}); !bytes.Equal(got, BulkString(nil)) {
		t.Errorf("deleted k1 resurrected: %q", got)
	}
	if got := store.Execute(Command{[]byte("GET"), []byte("n")}); !bytes.Equal(got, BulkString([]byte("1"))) {
		t.Errorf("counter after replay = %q", got)
	}
}

// copyDevice clones durable blocks between simulated devices (stands in
// for the disk surviving a process restart).
func copyDevice(t *testing.T, from, to *spdkdev.Device) {
	t.Helper()
	from.CloneBlocksInto(to)
}

func TestKVServerPipelinedCommands(t *testing.T) {
	eng, srv, lc, _ := cluster(t)
	var stats ServerStats
	eng.Spawn(srv.Net.(*catnip.LibOS).Node(), func() {
		Server(srv, ServerConfig{Addr: core.Addr{IP: ipSrv, Port: 6379}}, &stats)
	})
	var replies []Reply
	eng.Spawn(lc.Node(), func() {
		c, err := Dial(lc, core.Addr{IP: ipSrv, Port: 6379})
		if err != nil {
			return
		}
		// Hand-pipeline: two commands in one push.
		batch := append(EncodeCommand([]byte("SET"), []byte("p"), []byte("q")),
			EncodeCommand([]byte("GET"), []byte("p"))...)
		out := c.lib.Heap().Alloc(len(batch))
		copy(out.Bytes(), batch)
		qt, _ := c.lib.Push(c.qd, core.SGA(out))
		c.lib.Wait(qt)
		out.Free()
		for len(replies) < 2 {
			pqt, _ := c.lib.Pop(c.qd)
			ev, err := c.lib.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			c.buf = append(c.buf, ev.SGA.Flatten()...)
			ev.SGA.Free()
			for {
				r, n, ok, _ := ParseReply(c.buf)
				if !ok {
					break
				}
				c.buf = c.buf[n:]
				replies = append(replies, r)
			}
		}
		c.Close()
	})
	eng.Run()
	if len(replies) != 2 || replies[0].Str != "OK" || !bytes.Equal(replies[1].Bulk, []byte("q")) {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestAOFRewriteCompactsLog(t *testing.T) {
	eng, srv, lc, dev := cluster(t)
	var stats ServerStats
	eng.Spawn(srv.Net.(*catnip.LibOS).Node(), func() {
		Server(srv, ServerConfig{Addr: core.Addr{IP: ipSrv, Port: 6379}, AOFName: "appendonly.aof"}, &stats)
	})
	eng.Spawn(lc.Node(), func() {
		c, err := Dial(lc, core.Addr{IP: ipSrv, Port: 6379})
		if err != nil {
			return
		}
		// Churn one key 50 times, then compact.
		for i := 0; i < 50; i++ {
			c.Set([]byte("hot"), []byte{byte(i)})
		}
		c.Set([]byte("cold"), []byte("x"))
		r, err := c.Do([]byte("REWRITEAOF"))
		if err != nil || r.Str != "OK" {
			t.Errorf("rewrite: %+v %v", r, err)
		}
		c.Close()
	})
	eng.Run()
	// After rewrite the log holds exactly one record per live key.
	if tail := srv.Stor.(*cattree.LibOS).TailBlock("appendonly.aof"); tail != 2 {
		t.Fatalf("log tail = %d blocks after rewrite, want 2 (one per key)", tail)
	}

	// Recovery from the compacted log must reproduce the final state.
	node2 := sim.NewEngine(99).NewNode("r")
	_ = node2
	eng2 := sim.NewEngine(99)
	node := eng2.NewNode("restarted")
	dev2 := spdkdev.New(node, spdkdev.OptaneParams(), 1<<16)
	dev.CloneBlocksInto(dev2)
	stor := cattree.New(node, dev2)
	store := NewStore()
	var replayed ServerStats
	eng2.Spawn(node, func() {
		if err := stor.Mount(); err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		qd, _ := stor.Open("appendonly.aof")
		replayAOF(stor, qd, store, &replayed)
	})
	eng2.Run()
	if replayed.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2", replayed.ReplayedRecords)
	}
	if got := store.Execute(Command{[]byte("GET"), []byte("hot")}); !bytes.Equal(got, BulkString([]byte{49})) {
		t.Errorf("hot after compacted replay = %q", got)
	}
}

// A push the libOS refuses leaves the buffer with pushCopy, which frees it:
// the heap holds as many objects after as before.
func TestPushCopyRefusedFreesBuffer(t *testing.T) {
	eng, _, lc, _ := cluster(t)
	eng.Spawn(lc.Node(), func() {
		qd, err := lc.Socket(core.SockStream)
		if err != nil {
			t.Errorf("socket: %v", err)
			return
		}
		if err := lc.Close(qd); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		var seg [1]*memory.Buf
		live := lc.Heap().LiveObjects()
		if _, refused, _ := pushCopy(lc, &seg, qd, []byte("+OK\r\n")); refused == nil {
			t.Error("push to a closed descriptor was not refused")
		}
		if n := lc.Heap().LiveObjects(); n != live {
			t.Errorf("heap holds %d objects after a refused push, %d before", n, live)
		}
	})
	eng.Run()
}
