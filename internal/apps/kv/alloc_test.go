package kv

import (
	"bytes"
	"fmt"
	"testing"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
)

// fakeOS is the libOS under the allocation guards: every push completes at
// once and every pop returns reply. Once warm it allocates nothing, so what
// the guards count is the KV code's own allocations and nothing a datapath
// makes (its Ops, its mbufs, a pop's segment slice: the stacks' guards hold
// those).
type fakeOS struct {
	demi.LibOS // nil: only the methods below are called
	heap       *memory.Heap
	reply      []byte
	seg        [1]*memory.Buf
}

const fakePush, fakePop core.QToken = 1, 2

func (f *fakeOS) Heap() *memory.Heap                                 { return f.heap }
func (f *fakeOS) Push(core.QDesc, core.SGArray) (core.QToken, error) { return fakePush, nil }
func (f *fakeOS) Pop(core.QDesc) (core.QToken, error)                { return fakePop, nil }

func (f *fakeOS) Wait(qt core.QToken) (core.QEvent, error) {
	if qt == fakePush {
		return core.QEvent{Op: core.OpPush}, nil
	}
	f.seg[0] = memory.CopyFrom(f.heap, f.reply)
	return core.QEvent{Op: core.OpPop, SGA: core.SGArray{Segs: f.seg[:]}}, nil
}

// On a warmed connection of a server logging to an AOF, a GET allocates
// nothing in the KV app, and a SET allocates the value the store keeps,
// plus the key's string when the key is new: the command is parsed in
// place, the reply and the AOF record are built in scratch the server
// reuses, and pushed through a segment array it owns.
func TestServeAllocs(t *testing.T) {
	s := &server{l: &fakeOS{heap: memory.NewHeap(nil)}, store: NewStore(), logQD: 1, stats: &ServerStats{}}
	c := &conn{}
	serve := func(req []byte) {
		c.buf = append(c.buf, req...)
		if replies, ok, err := s.serve(c); !ok || err != nil || len(c.buf) != 0 || replies[0] == '-' {
			t.Fatalf("%q: ok %v, err %v, %d bytes left, replies %q", req, ok, err, len(c.buf), replies)
		}
	}
	value := bytes.Repeat([]byte{'v'}, 64)
	const runs = 100
	var newKeys [][]byte
	for i := 0; i < runs+1; i++ {
		key := []byte(fmt.Sprintf("key:%06d", i))
		serve(EncodeCommand([]byte("SET"), key, value))
		serve(EncodeCommand([]byte("DEL"), key)) // the map and the value slots reach their working size
		newKeys = append(newKeys, EncodeCommand([]byte("SET"), key, value))
	}
	set := EncodeCommand([]byte("SET"), []byte("hot"), value)
	get := EncodeCommand([]byte("GET"), []byte("hot"))
	serve(set)
	serve(get)
	if n := testing.AllocsPerRun(runs, func() { serve(get) }); n != 0 {
		t.Errorf("a GET allocates %v objects in the KV app, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() { serve(set) }); n != 1 {
		t.Errorf("a SET of a key the store has allocates %v objects, want the value only", n)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { serve(newKeys[next]); next++ }); n != 2 {
		t.Errorf("a SET of a new key allocates %v objects, want the value and the key", n)
	}
	if s.stats.AOFRecords != s.stats.Writes || s.stats.AOFErrors != 0 {
		t.Fatalf("the SETs were not logged: %+v", *s.stats)
	}
}

// On a warmed client, a SET, whose reply is +OK, allocates nothing, and a
// GET only the value it returns, which is the caller's.
func TestClientAllocs(t *testing.T) {
	f := &fakeOS{heap: memory.NewHeap(nil)}
	cl := &Client{lib: f, qd: 1}
	key, value := []byte("key:000017"), bytes.Repeat([]byte{'v'}, 64)
	f.reply = SimpleString("OK")
	set := func() {
		if err := cl.Set(key, value); err != nil {
			t.Fatal(err)
		}
	}
	set()
	if n := testing.AllocsPerRun(100, set); n != 0 {
		t.Errorf("a SET allocates %v objects in the client, want 0", n)
	}
	f.reply = BulkString(value)
	get := func() {
		if got, err := cl.Get(key); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("get = %q, %v", got, err)
		}
	}
	get()
	if n := testing.AllocsPerRun(100, get); n != 1 {
		t.Errorf("a GET allocates %v objects in the client, want the value it returns only", n)
	}
}
