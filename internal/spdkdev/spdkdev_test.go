package spdkdev

import (
	"bytes"
	"testing"
	"time"

	"demikernel/internal/faults"
	"demikernel/internal/sim"
)

// runDev drives fn on a node with a fresh device and runs the simulation.
func runDev(t *testing.T, fn func(*sim.Engine, *Device)) {
	t.Helper()
	eng := sim.NewEngine(5)
	node := eng.NewNode("host")
	dev := New(node, OptaneParams(), 1<<20)
	eng.Spawn(node, func() { fn(eng, dev) })
	eng.Run()
}

// await polls until a completion arrives.
func await(dev *Device) (Completion, bool) {
	for {
		if cs := dev.PollCompletions(1); len(cs) > 0 {
			return cs[0], true
		}
		if !dev.Node().Park(sim.Infinity) {
			return Completion{}, false
		}
	}
}

func TestWriteThenReadBack(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		data := make([]byte, 2*BlockSize)
		for i := range data {
			data[i] = byte(i)
		}
		if err := dev.SubmitWrite(10, [][]byte{data}, "w"); err != nil {
			t.Fatal(err)
		}
		if c, ok := await(dev); !ok || c.Op != OpWrite || c.Cookie != "w" {
			t.Fatalf("write completion = %+v", c)
		}
		if err := dev.SubmitRead(10, 2, "r"); err != nil {
			t.Fatal(err)
		}
		c, ok := await(dev)
		if !ok || c.Op != OpRead {
			t.Fatalf("read completion = %+v", c)
		}
		if !bytes.Equal(c.Data, data) {
			t.Error("read data differs from written data")
		}
	})
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		dev.SubmitRead(500, 1, nil)
		c, _ := await(dev)
		for _, b := range c.Data {
			if b != 0 {
				t.Fatal("unwritten block not zero")
			}
		}
	})
}

func TestWriteLatencyModel(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		start := dev.Node().Now()
		dev.SubmitWrite(0, [][]byte{make([]byte, BlockSize)}, nil)
		await(dev)
		elapsed := dev.Node().Now().Sub(start)
		want := OptaneParams().WriteLatency + OptaneParams().transferCost(BlockSize)
		if elapsed < want || elapsed > want+time.Microsecond {
			t.Errorf("write took %v, want ≈%v", elapsed, want)
		}
	})
}

func TestSerialPipelineQueueing(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		start := dev.Node().Now()
		for i := 0; i < 4; i++ {
			dev.SubmitWrite(int64(i), [][]byte{make([]byte, BlockSize)}, i)
		}
		for i := 0; i < 4; i++ {
			await(dev)
		}
		elapsed := dev.Node().Now().Sub(start)
		per := OptaneParams().WriteLatency + OptaneParams().transferCost(BlockSize)
		if elapsed < 4*per {
			t.Errorf("4 writes took %v, want >= %v (serial pipeline)", elapsed, 4*per)
		}
	})
}

func TestFlushOrdersAfterWrites(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		dev.SubmitWrite(0, [][]byte{make([]byte, BlockSize)}, "w1")
		dev.SubmitWrite(1, [][]byte{make([]byte, BlockSize)}, "w2")
		dev.SubmitFlush("f")
		var order []any
		for len(order) < 3 {
			c, ok := await(dev)
			if !ok {
				return
			}
			order = append(order, c.Cookie)
		}
		if order[2] != "f" {
			t.Errorf("flush completed before writes: %v", order)
		}
	})
}

func TestRangeValidation(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		if err := dev.SubmitWrite(-1, [][]byte{make([]byte, BlockSize)}, nil); err == nil {
			t.Error("negative LBA accepted")
		}
		if err := dev.SubmitWrite(dev.NumBlocks(), [][]byte{make([]byte, BlockSize)}, nil); err == nil {
			t.Error("out-of-range write accepted")
		}
		if err := dev.SubmitWrite(0, [][]byte{make([]byte, 100)}, nil); err == nil {
			t.Error("unaligned write accepted")
		}
		if err := dev.SubmitRead(0, 0, nil); err == nil {
			t.Error("zero-block read accepted")
		}
	})
}

func TestCrashLosesInflightKeepsDurable(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		durable := bytes.Repeat([]byte{1}, BlockSize)
		dev.SubmitWrite(0, [][]byte{durable}, "durable")
		await(dev) // completed: durable
		dev.SubmitWrite(1, [][]byte{bytes.Repeat([]byte{2}, BlockSize)}, "lost")
		dev.Crash() // before completion: lost
		dev.SubmitRead(0, 2, nil)
		c, _ := await(dev)
		if !bytes.Equal(c.Data[:BlockSize], durable) {
			t.Error("durable block lost by crash")
		}
		for _, b := range c.Data[BlockSize:] {
			if b != 0 {
				t.Fatal("in-flight write survived crash")
			}
		}
		if dev.Inflight() != 0 {
			t.Error("inflight not reset by crash")
		}
	})
}

func TestPollNeverReturnsStaleCompletionsAfterCrash(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		dev.SubmitWrite(0, [][]byte{make([]byte, BlockSize)}, "pre-crash")
		dev.Crash()
		dev.SubmitWrite(1, [][]byte{make([]byte, BlockSize)}, "post-crash")
		c, _ := await(dev)
		if c.Cookie != "post-crash" {
			t.Errorf("got completion %v, want post-crash only", c.Cookie)
		}
	})
}

// A write is the concatenation of its gather list, however the list cuts
// it: segments may straddle blocks or be empty.
func TestGatherWrite(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		data := make([]byte, 3*BlockSize)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		gather := [][]byte{data[:12], data[12:12], data[12:700], data[700:1024], data[1024:]}
		if err := dev.SubmitWrite(4, gather, "w"); err != nil {
			t.Fatal(err)
		}
		if c, ok := await(dev); !ok || c.Err != nil {
			t.Fatalf("write completion = %+v", c)
		}
		dev.SubmitRead(4, 3, "r")
		if c, _ := await(dev); !bytes.Equal(c.Data, data) {
			t.Error("read data differs from the gathered write")
		}
		if s := dev.Stats(); s.Writes != 1 || s.BytesWrit != uint64(len(data)) {
			t.Errorf("stats = %+v", s)
		}
	})
}

// An injected I/O error fails the command and changes nothing durable; a
// torn write persists the prefix of its blocks the site's random stream
// picks and fails with ErrTornWrite; both still pay the command's latency.
func TestInjectedFaults(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		pattern := bytes.Repeat([]byte{0xA5}, 4*BlockSize)
		dev.SetFaults(Faults{IOErr: faults.NewPlan(1).Site("io", faults.Spec{Every: 1, Max: 2})})
		start := dev.Node().Now()
		dev.SubmitWrite(0, [][]byte{pattern}, "w")
		c, _ := await(dev)
		if c.Err != ErrInjected || c.Op != OpWrite || c.Cookie != "w" {
			t.Fatalf("failed write = %+v", c)
		}
		if took, want := dev.Node().Now().Sub(start), OptaneParams().WriteLatency; took < want {
			t.Errorf("failed write took %v, want >= %v", took, want)
		}
		dev.SubmitRead(0, 4, "r")
		if c, _ := await(dev); c.Err != ErrInjected || c.Data != nil {
			t.Fatalf("failed read = %+v", c)
		}
		if s := dev.Stats(); s.Writes != 0 || s.Reads != 0 || len(dev.blocks) != 0 {
			t.Fatalf("an injected error left a trace: %+v, %d blocks", s, len(dev.blocks))
		}

		spec := faults.Spec{Every: 1, Max: 1}
		twin := faults.NewPlan(5).Site("torn", spec)
		twin.Fire(0)
		torn := twin.Rand().Intn(4)
		if torn == 0 {
			t.Fatal("seed 5 no longer tears mid-record; pick another")
		}
		dev.SetFaults(Faults{TornWrite: faults.NewPlan(5).Site("torn", spec)})
		dev.SubmitWrite(0, [][]byte{pattern[:100], pattern[100:]}, "torn")
		if c, _ := await(dev); c.Err != ErrTornWrite || c.Cookie != "torn" {
			t.Fatalf("torn write = %+v", c)
		}
		dev.SubmitRead(0, 4, "r")
		c, _ = await(dev)
		want := append(bytes.Clone(pattern[:torn*BlockSize]), make([]byte, (4-torn)*BlockSize)...)
		if !bytes.Equal(c.Data, want) {
			t.Errorf("a torn write did not persist exactly its first %d blocks", torn)
		}
		if s := dev.Stats(); s.Writes != 1 || s.BytesWrit != uint64(torn*BlockSize) {
			t.Errorf("stats after a torn write = %+v", s)
		}
	})
}

// A command lost to a crash goes back on the free list when its completion
// event fires, and never surfaces a completion; the next command reuses it.
func TestCrashedCommandIsRecycledSilently(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		dev.SubmitWrite(0, [][]byte{make([]byte, BlockSize)}, "lost")
		dev.Crash()
		if len(dev.free) != 0 {
			t.Fatal("the crash recycled a command whose event is still pending")
		}
		until := dev.Node().Now().Add(time.Millisecond)
		for dev.Node().Now() < until && dev.Node().Park(until) {
		}
		if len(dev.free) != 1 {
			t.Fatalf("%d commands on the free list after the lost one's event, want 1", len(dev.free))
		}
		if cs := dev.PollCompletions(8); len(cs) != 0 {
			t.Fatalf("a lost command completed: %+v", cs)
		}
		dev.SubmitWrite(1, [][]byte{make([]byte, BlockSize)}, "next")
		if len(dev.free) != 0 {
			t.Error("the next command did not reuse the lost one's record")
		}
		if c, _ := await(dev); c.Cookie != "next" {
			t.Errorf("completion %v, want next", c.Cookie)
		}
	})
}

// The media is chunked, and nothing of that shows: a write that straddles
// two chunks reads back whole, the blocks around it that no write reached
// read as zeros though their chunk exists, and a clone is a copy the source
// no longer reaches.
func TestMediaChunks(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		data := make([]byte, 3*BlockSize)
		for i := range data {
			data[i] = byte(i*13 + 5)
		}
		lba := int64(2*chunkBlocks - 2) // blocks 126, 127 | 128
		dev.SubmitWrite(lba, [][]byte{data[:700], data[700:]}, nil)
		await(dev)
		if len(dev.blocks) != 2 {
			t.Fatalf("a write across one chunk boundary made %d chunks, want 2", len(dev.blocks))
		}
		dev.SubmitRead(lba-1, 5, nil)
		c, _ := await(dev)
		want := append(append(make([]byte, BlockSize), data...), make([]byte, BlockSize)...)
		if !bytes.Equal(c.Data, want) {
			t.Error("a straddling write and its unwritten neighbours did not read back as written and zeros")
		}

		clone := New(eng.NewNode("restarted"), OptaneParams(), dev.NumBlocks())
		dev.CloneBlocksInto(clone)
		dev.SubmitWrite(lba, [][]byte{make([]byte, BlockSize)}, nil)
		await(dev)
		if got := clone.read(lba-1, 5); !bytes.Equal(got, want) {
			t.Error("the clone does not hold the source's contents at clone time")
		}
	})
}

// The free list holds as many records as commands were ever in flight at
// once, and a warmed write allocates nothing: its block is copied into a
// chunk of the media that exists. PollCompletions hands back the same array
// every call.
func TestCommandRecordsRecycled(t *testing.T) {
	runDev(t, func(eng *sim.Engine, dev *Device) {
		block := [][]byte{make([]byte, BlockSize)}
		for i := 0; i < 3; i++ {
			dev.SubmitWrite(int64(i), block, i)
		}
		first := dev.PollCompletions(1)
		for len(first) == 0 {
			dev.Node().Park(sim.Infinity)
			first = dev.PollCompletions(1)
		}
		for got := 1; got < 3; {
			if cs := dev.PollCompletions(8); len(cs) > 0 {
				if &cs[0] != &first[0] {
					t.Error("PollCompletions did not reuse its array")
				}
				got += len(cs)
			} else {
				dev.Node().Park(sim.Infinity)
			}
		}
		write := func() {
			dev.SubmitWrite(7, block, nil)
			await(dev)
		}
		write()
		if n := testing.AllocsPerRun(100, write); n != 0 {
			t.Errorf("a warmed one-block write allocates %v objects, want 0", n)
		}
		if len(dev.free) != 3 {
			t.Errorf("%d command records on the free list, want the 3 once in flight", len(dev.free))
		}
	})
}
