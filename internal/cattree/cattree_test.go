package cattree

import (
	"bytes"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/spdkdev"
)

// run executes fn on a node with a Cattree libOS over a fresh device.
func run(t *testing.T, fn func(*sim.Engine, *LibOS, *spdkdev.Device)) {
	t.Helper()
	eng := sim.NewEngine(21)
	node := eng.NewNode("host")
	dev := spdkdev.New(node, spdkdev.OptaneParams(), 1<<16)
	l := New(node, dev)
	eng.Spawn(node, func() { fn(eng, l, dev) })
	eng.Run()
}

func pushWait(t *testing.T, l *LibOS, qd core.QDesc, p []byte) {
	t.Helper()
	qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), p)))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
		t.Fatalf("push wait: %v %v", err, ev.Err)
	}
}

func popWait(t *testing.T, l *LibOS, qd core.QDesc) []byte {
	t.Helper()
	qt, err := l.Pop(qd)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	ev, err := l.Wait(qt)
	if err != nil || ev.Err != nil {
		t.Fatalf("pop wait: %v %v", err, ev.Err)
	}
	if len(ev.SGA.Segs) == 0 {
		return nil // EOF
	}
	out := ev.SGA.Flatten()
	ev.SGA.Free()
	return out
}

func TestAppendThenReadBack(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, err := l.Open("log")
		if err != nil {
			t.Fatal(err)
		}
		pushWait(t, l, qd, []byte("first record"))
		pushWait(t, l, qd, []byte("second record"))
		if got := popWait(t, l, qd); string(got) != "first record" {
			t.Fatalf("got %q", got)
		}
		if got := popWait(t, l, qd); string(got) != "second record" {
			t.Fatalf("got %q", got)
		}
		if got := popWait(t, l, qd); got != nil {
			t.Fatalf("expected EOF, got %q", got)
		}
	})
}

func TestLargeRecordSpansBlocks(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		big := make([]byte, 5000) // ~10 blocks
		for i := range big {
			big[i] = byte(i * 3)
		}
		pushWait(t, l, qd, big)
		if got := popWait(t, l, qd); !bytes.Equal(got, big) {
			t.Fatal("multi-block record corrupted")
		}
	})
}

func TestIndependentCursors(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		q1, _ := l.Open("log")
		q2, _ := l.Open("log")
		pushWait(t, l, q1, []byte("shared"))
		if got := popWait(t, l, q1); string(got) != "shared" {
			t.Fatal("cursor 1 failed")
		}
		if got := popWait(t, l, q2); string(got) != "shared" {
			t.Fatal("cursor 2 must read from its own position")
		}
	})
}

func TestSeekRewinds(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		pushWait(t, l, qd, []byte("replay me"))
		popWait(t, l, qd)
		if err := l.Seek(qd, 0); err != nil {
			t.Fatal(err)
		}
		if got := popWait(t, l, qd); string(got) != "replay me" {
			t.Fatalf("after seek got %q", got)
		}
	})
}

func TestTruncateResetsLog(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		pushWait(t, l, qd, []byte("old"))
		if err := l.Truncate(qd); err != nil {
			t.Fatal(err)
		}
		if l.TailBlock("log") != 0 {
			t.Fatal("tail not reset")
		}
		pushWait(t, l, qd, []byte("new"))
		l.Seek(qd, 0)
		if got := popWait(t, l, qd); string(got) != "new" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestDurabilityPushCompletesOnlyWhenDurable(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		buf := memory.CopyFrom(l.Heap(), []byte("durable?"))
		qt, _ := l.Push(qd, core.SGA(buf))
		// Token must not be complete before the device write finishes.
		if _, done, _ := tokensPeek(l, qt); done {
			t.Fatal("push completed before device write")
		}
		if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
			t.Fatal(err)
		}
		// Two device writes: the directory record for the new log name,
		// and the pushed record itself.
		if dev.Stats().Writes != 2 {
			t.Fatalf("device writes = %d", dev.Stats().Writes)
		}
	})
}

// tokensPeek inspects completion state without consuming (test helper).
func tokensPeek(l *LibOS, qt core.QToken) (core.QEvent, bool, error) {
	op, ok := l.Tokens().Lookup(qt)
	if !ok {
		return core.QEvent{}, false, core.ErrBadQToken
	}
	return core.QEvent{}, op.Done(), nil
}

func TestMountRecoversAfterCrash(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		pushWait(t, l, qd, []byte("rec-a"))
		pushWait(t, l, qd, []byte("rec-b"))
		// An in-flight record lost to power failure:
		l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), []byte("rec-lost"))))
		dev.Crash()

		// "Restart": fresh libOS over the same device.
		l2 := New(l.Node(), dev)
		if err := l2.Mount(); err != nil {
			t.Fatal(err)
		}
		// Three recovered records: the directory entry plus two data
		// records; the in-flight one is lost.
		if l2.Stats().RecoveredRecs != 3 {
			t.Fatalf("recovered %d records, want 3", l2.Stats().RecoveredRecs)
		}
		qd2, _ := l2.Open("log")
		if got := popWait(t, l2, qd2); string(got) != "rec-a" {
			t.Fatalf("got %q", got)
		}
		if got := popWait(t, l2, qd2); string(got) != "rec-b" {
			t.Fatalf("got %q", got)
		}
		if got := popWait(t, l2, qd2); got != nil {
			t.Fatalf("lost record resurrected: %q", got)
		}
	})
}

// The device reads a pushed buffer when the write completes, not when it is
// submitted, so the application's Free right behind Push must not hand the
// slot to the next allocation of its size before then: the record read back
// is what was pushed, not what the next owner wrote.
func TestUAFProtectionAcrossStorage(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		buf := l.Heap().Alloc(2048)
		pushed := buf.Bytes()
		for i := range pushed {
			pushed[i] = byte(i % 251)
		}
		want := bytes.Clone(pushed)
		qt, _ := l.Push(qd, core.SGA(buf))
		buf.Free() // immediately after push: legal
		if l.Heap().LiveObjects() != 1 {
			t.Fatal("buffer recycled while write in flight")
		}
		next := l.Heap().Alloc(2048)
		for i := range next.Bytes() {
			next.Bytes()[i] = 0xEE
		}
		if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
			t.Fatal(err)
		}
		next.Free()
		if l.Heap().LiveObjects() != 0 {
			t.Fatal("buffer leaked after durable write")
		}
		if got := popWait(t, l, qd); !bytes.Equal(got, want) {
			t.Fatal("the record is not the pushed bytes: the slot was reused before the device read it")
		}
	})
}

func TestNamedLogsAreIsolated(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		a, _ := l.Open("alpha.log")
		b, _ := l.Open("beta.log")
		pushWait(t, l, a, []byte("for-alpha"))
		pushWait(t, l, b, []byte("for-beta"))
		if got := popWait(t, l, a); string(got) != "for-alpha" {
			t.Errorf("alpha read %q", got)
		}
		if got := popWait(t, l, b); string(got) != "for-beta" {
			t.Errorf("beta read %q", got)
		}
		// Truncating one log must not affect the other.
		if err := l.Truncate(a); err != nil {
			t.Fatal(err)
		}
		l.Seek(b, 0)
		if got := popWait(t, l, b); string(got) != "for-beta" {
			t.Errorf("beta lost data after alpha truncate: %q", got)
		}
		if l.Logs() != 2 {
			t.Errorf("Logs() = %d", l.Logs())
		}
	})
}

func TestMountRecoversMultipleNamedLogs(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		a, _ := l.Open("x.log")
		b, _ := l.Open("y.log")
		pushWait(t, l, a, []byte("xa"))
		pushWait(t, l, b, []byte("yb"))
		pushWait(t, l, a, []byte("xc"))

		l2 := New(l.Node(), dev)
		if err := l2.Mount(); err != nil {
			t.Fatal(err)
		}
		if l2.Logs() != 2 {
			t.Fatalf("recovered %d logs, want 2", l2.Logs())
		}
		qa, _ := l2.Open("x.log")
		if got := popWait(t, l2, qa); string(got) != "xa" {
			t.Errorf("x.log first = %q", got)
		}
		if got := popWait(t, l2, qa); string(got) != "xc" {
			t.Errorf("x.log second = %q", got)
		}
		qb, _ := l2.Open("y.log")
		if got := popWait(t, l2, qb); string(got) != "yb" {
			t.Errorf("y.log = %q", got)
		}
		// Appending after recovery lands at the recovered tail.
		pushWait(t, l2, qa, []byte("xd"))
		if got := popWait(t, l2, qa); string(got) != "xd" {
			t.Errorf("append after mount = %q", got)
		}
	})
}

func TestPartitionFullRejectsPush(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("tiny")
		// Fill the partition to the brim.
		part := l.parts["tiny"]
		blockPayload := make([]byte, spdkdev.BlockSize*4)
		for part.tail+int64(blocksFor(len(blockPayload))) <= part.size {
			pushWait(t, l, qd, blockPayload)
		}
		// The remaining gap is smaller than one more full record.
		qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), blockPayload)))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := l.Wait(qt)
		if err != nil || ev.Err == nil {
			t.Fatalf("overflowing push accepted: %v %+v", err, ev)
		}
	})
}

// A warmed append of a 64-byte record, Push to Wait, allocates the Op behind
// its token and nothing else: no flattened copy, no staging block, no
// completion closure, and no media block (the device copies the record into
// a 64-block chunk of its media, made once per 64 appends).
func TestDurableAppendAllocs(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		segs := make([]*memory.Buf, 1) // the caller's array: an SGA per push is not what is measured
		payload := bytes.Repeat([]byte{'r'}, 64)
		appendOne := func() {
			segs[0] = memory.CopyFrom(l.Heap(), payload)
			qt, err := l.Push(qd, core.SGArray{Segs: segs})
			if err != nil {
				t.Fatal(err)
			}
			if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
				t.Fatalf("append: %v %v", err, ev.Err)
			}
			segs[0].Free()
		}
		for i := 0; i < 16; i++ {
			appendOne()
		}
		if n := testing.AllocsPerRun(200, appendOne); n != 1 {
			t.Errorf("a warmed 64-byte append allocates %v objects, want the Op only", n)
		}
		if len(l.recs) != 1 {
			t.Errorf("%d append records on the free list, want the one in flight at a time", len(l.recs))
		}
	})
}

// The device's failure modes reach the application as they did when an
// append was a closure over a staged copy: an injected I/O error and a torn
// write fail the push with the device's error and leave a hole replay stops
// at; an append lost to a crash never completes and keeps its buffer's
// libOS reference. Every append that completes, either way, gives its
// buffers' references back and its record to the free list exactly once,
// and the free list holds no more records than were in flight at once.
func TestAppendFaultPaths(t *testing.T) {
	run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
		qd, _ := l.Open("log")
		pushWait(t, l, qd, []byte("before"))
		live := l.Heap().LiveObjects() // pushWait's buffer, which it never frees
		plan := faults.NewPlan(5)
		dev.SetFaults(spdkdev.Faults{
			IOErr:     plan.Site("io", faults.Spec{Every: 2, Max: 1}),
			TornWrite: plan.Site("torn", faults.Spec{Every: 2, Max: 1}), // consulted only when IOErr does not fire
		})
		// Three appends in flight at once: the second hits the I/O error,
		// the third the torn write (two blocks, so the tear is real).
		bufs := []*memory.Buf{
			memory.CopyFrom(l.Heap(), []byte("ok")),
			memory.CopyFrom(l.Heap(), []byte("io error")),
			memory.CopyFrom(l.Heap(), bytes.Repeat([]byte{'t'}, spdkdev.BlockSize)),
		}
		var qts []core.QToken
		for _, b := range bufs {
			qt, err := l.Push(qd, core.SGA(b))
			if err != nil {
				t.Fatal(err)
			}
			b.Free()
			qts = append(qts, qt)
		}
		for i, want := range []error{nil, spdkdev.ErrInjected, spdkdev.ErrTornWrite} {
			if ev, err := l.Wait(qts[i]); err != nil || ev.Err != want {
				t.Fatalf("append %d: %v, %v; want %v", i, err, ev.Err, want)
			}
		}
		if n := l.Heap().LiveObjects() - live; n != 0 {
			t.Fatalf("%d buffers still referenced after every append completed", n)
		}
		if len(l.recs) != 3 || l.recs[0] == l.recs[1] || l.recs[1] == l.recs[2] || l.recs[0] == l.recs[2] {
			t.Fatalf("free list %v, want the three records once each", l.recs)
		}
		if s := l.Stats(); s.Appends != 2 || s.BytesAppended != uint64(len("before")+len("ok")) {
			t.Errorf("stats = %+v", s)
		}
		if got := popWait(t, l, qd); string(got) != "before" {
			t.Fatalf("first record %q", got)
		}
		if got := popWait(t, l, qd); string(got) != "ok" {
			t.Fatalf("second record %q", got)
		}
		pqt, _ := l.Pop(qd)
		if ev, err := l.Wait(pqt); err != nil || ev.Err != core.ErrQueueClosed {
			t.Fatalf("the failed append's hole read as %+v, %v", ev, err)
		}

		buf := memory.CopyFrom(l.Heap(), []byte("lost"))
		lost, _ := l.Push(qd, core.SGA(buf))
		buf.Free()
		dev.Crash()
		l.WaitAny(nil, time.Millisecond) // long past the write's completion time
		if _, done, _ := tokensPeek(l, lost); done {
			t.Fatal("an append lost to a crash completed")
		}
		if !buf.IOOwned() || l.Heap().LiveObjects()-live != 1 || len(l.recs) != 2 {
			t.Fatalf("after a crash: buffer IO-owned %v, %d live objects, %d free records; want the lost append to keep both",
				buf.IOOwned(), l.Heap().LiveObjects()-live, len(l.recs))
		}
	})
}

// A torn append whose first block persisted has an intact magic, generation
// and length. Its checksum fails, so a remount ends the log before it and
// does not replay the blocks the tear left unwritten as the record.
func TestTornRecordDoesNotReplay(t *testing.T) {
	rec := bytes.Repeat([]byte("torn"), 384) // 1 536 bytes: four blocks with the header
	for seed := uint64(1); seed <= 15; seed++ {
		run(t, func(eng *sim.Engine, l *LibOS, dev *spdkdev.Device) {
			qd, _ := l.Open("log")
			dev.SetFaults(spdkdev.Faults{TornWrite: faults.NewPlan(seed).Site("torn", faults.Spec{Every: 1, Max: 1})})
			qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), rec)))
			if err != nil {
				t.Fatal(err)
			}
			if ev, err := l.Wait(qt); err != nil || ev.Err != spdkdev.ErrTornWrite {
				t.Fatalf("seed %d: append %v, %v; want a torn write", seed, err, ev.Err)
			}
			l2 := New(l.Node(), dev)
			if err := l2.Mount(); err != nil {
				t.Fatal(err)
			}
			qd2, _ := l2.Open("log")
			if got := popWait(t, l2, qd2); got != nil {
				t.Errorf("seed %d: the torn append replayed as %d bytes", seed, len(got))
			}
			pqt, _ := l.Pop(qd)
			if ev, err := l.Wait(pqt); err != nil || ev.Err != core.ErrQueueClosed {
				t.Errorf("seed %d: the torn append read back as %+v, %v", seed, ev, err)
			}
		})
	}
}
