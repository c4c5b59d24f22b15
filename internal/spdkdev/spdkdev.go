// Package spdkdev simulates an SPDK-style NVMe device: asynchronous block
// reads/writes/flushes submitted to a queue and completed through a polled
// completion queue, with a latency model calibrated to the paper's Intel
// Optane 800P (3D XPoint) SSDs. Cattree builds its log abstraction on this
// interface exactly as the real Cattree builds on SPDK.
//
// Fault injection: Crash discards all in-flight (submitted but incomplete)
// operations, modelling power failure; completed writes remain durable.
// Cattree's recovery tests use this to validate log replay.
package spdkdev

import (
	"errors"
	"fmt"
	"time"

	"demikernel/internal/faults"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Errors surfaced in Completion.Err by injected faults. Callers distinguish
// torn writes (partial durable mutation) from clean I/O errors.
var (
	ErrInjected  = errors.New("spdkdev: injected I/O error")
	ErrTornWrite = errors.New("spdkdev: torn write (partial blocks durable)")
)

// Faults bundles the device's injection sites. Any field may be nil.
type Faults struct {
	// IOErr fails a command with ErrInjected and no durable mutation.
	IOErr *faults.Site
	// Latency stretches a command's service time by its Spec.Duration.
	Latency *faults.Site
	// TornWrite makes a write persist only a prefix of its blocks and
	// complete with ErrTornWrite — the classic partial-sector power bug.
	TornWrite *faults.Site
}

// BlockSize is the device's logical block size in bytes.
const BlockSize = 512

// chunkBlocks is how many blocks one chunk of the media holds: 32 KiB, Go's
// largest small-object size class, so a chunk costs its bytes and nothing
// more.
const chunkBlocks = 64

// A chunk is a run of the media, made on the first write to any of its
// blocks. It holds no pointer, so the collector never scans it, and a block
// no write reached reads as zeros.
type chunk [chunkBlocks * BlockSize]byte

// Params is the device latency model.
type Params struct {
	// ReadLatency and WriteLatency are fixed per-command costs.
	ReadLatency, WriteLatency time.Duration
	// FlushLatency is the cost of a flush barrier.
	FlushLatency time.Duration
	// BytesPerSec is the transfer rate; zero means infinite.
	BytesPerSec float64
}

// transferCost returns the transfer time for n bytes.
func (p Params) transferCost(n int) time.Duration {
	if p.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.BytesPerSec * 1e9)
}

// OptaneParams models the paper's Intel Optane 800P: ~10 µs access latency
// and ~2 GB/s transfer.
func OptaneParams() Params {
	return Params{
		ReadLatency:  10 * time.Microsecond,
		WriteLatency: 10 * time.Microsecond,
		FlushLatency: 2 * time.Microsecond,
		BytesPerSec:  2e9,
	}
}

// Op identifies a completed command.
type Op int

const (
	// OpRead completes a SubmitRead.
	OpRead Op = iota
	// OpWrite completes a SubmitWrite.
	OpWrite
	// OpFlush completes a SubmitFlush.
	OpFlush
)

// Completion is one completion queue entry.
type Completion struct {
	Op     Op
	Cookie any
	Data   []byte // OpRead: the data read
	Err    error
}

// Stats counts device activity.
type Stats struct {
	Reads, Writes, Flushes uint64
	BytesRead, BytesWrit   uint64
	Crashes                uint64
}

// Device is one simulated NVMe namespace bound to a node.
type Device struct {
	node      *sim.Node
	params    Params
	numBlocks int64
	blocks    map[int64]*chunk // durable contents by lba/chunkBlocks, sparse
	cq        []Completion     // completed, not yet polled; compacted in place
	polled    []Completion     // what the last PollCompletions returned
	free      []*command       // command records between commands
	busyUntil sim.Time
	inflight  int
	epoch     uint64 // bumped by Crash to invalidate in-flight completions
	stats     Stats
	tel       *telemetry.Registry
	flt       Faults
}

// A command is one submitted device command. Records are recycled through
// Device.free, and the engine event that completes one is fire, bound to
// the record once (simnet's hop records do the same), so submitting
// allocates nothing once as many commands have been in flight as ever will
// be; the free list never holds more than that many.
type command struct {
	d      *Device
	epoch  uint64 // Device.epoch at submit: a crash since loses the command
	op     Op
	cookie any
	err    error // ErrInjected, or ErrTornWrite for a write persisting fewer blocks
	lba    int64
	blocks int      // blocks read, or persisted by a write
	gather [][]byte // a write's bytes, read when it completes
	fire   func()   // c.run, bound when the record is made
}

// SetFaults installs (or, with the zero value, clears) the device's fault
// injection sites.
func (d *Device) SetFaults(f Faults) { d.flt = f }

// faultCost returns the latency penalty for this command, consuming one
// Latency trigger if it fires.
func (d *Device) faultCost() time.Duration {
	if d.flt.Latency.Fire(d.node.Now()) {
		return d.flt.Latency.Spec().Duration
	}
	return 0
}

// New creates a device with the given capacity in blocks.
func New(node *sim.Node, params Params, numBlocks int64) *Device {
	d := &Device{
		node:      node,
		params:    params,
		numBlocks: numBlocks,
		blocks:    make(map[int64]*chunk),
	}
	d.tel = telemetry.NewRegistry(node.Name() + "/spdk")
	s := &d.stats
	d.tel.Sample("spdk.reads", func() int64 { return int64(s.Reads) })
	d.tel.Sample("spdk.writes", func() int64 { return int64(s.Writes) })
	d.tel.Sample("spdk.flushes", func() int64 { return int64(s.Flushes) })
	d.tel.Sample("spdk.bytes_read", func() int64 { return int64(s.BytesRead) })
	d.tel.Sample("spdk.bytes_written", func() int64 { return int64(s.BytesWrit) })
	d.tel.Sample("spdk.crashes", func() int64 { return int64(s.Crashes) })
	d.tel.Sample("spdk.inflight", func() int64 { return int64(d.inflight) })
	return d
}

// Telemetry returns the device's metric registry (sampled views of Stats).
func (d *Device) Telemetry() *telemetry.Registry { return d.tel }

// Node returns the owning node.
func (d *Device) Node() *sim.Node { return d.node }

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() int64 { return d.numBlocks }

// Stats returns a snapshot of device counters.
func (d *Device) Stats() Stats { return d.stats }

// Inflight returns the number of submitted, incomplete commands.
func (d *Device) Inflight() int { return d.inflight }

// command returns a record for a new command, from the free list if one is
// there.
func (d *Device) command(op Op, cookie any) *command {
	var c *command
	if k := len(d.free) - 1; k >= 0 {
		c, d.free = d.free[k], d.free[:k]
	} else {
		c = &command{d: d}
		c.fire = c.run
	}
	c.op, c.cookie = op, cookie
	return c
}

// schedule serializes a command through the device pipeline and arranges
// its completion. The command mutates durable state when it completes (so
// a crash before completion leaves no trace).
func (d *Device) schedule(c *command, cost time.Duration) {
	start := d.node.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start.Add(cost)
	d.busyUntil = done
	d.inflight++
	c.epoch = d.epoch
	d.node.Engine().At(done, d.node, c.fire)
}

// run completes the command: it applies the command's effect, queues its
// completion and puts the record back. A command lost to a crash only goes
// back on the free list; it never surfaces a completion.
func (c *command) run() {
	d := c.d
	if c.epoch == d.epoch {
		d.inflight--
		comp := Completion{Op: c.op, Cookie: c.cookie, Err: c.err}
		switch {
		case c.err == ErrInjected:
		case c.op == OpWrite:
			d.persist(c.lba, c.blocks, c.gather)
			d.stats.Writes++
			d.stats.BytesWrit += uint64(c.blocks * BlockSize)
		case c.op == OpRead:
			comp.Data = d.read(c.lba, c.blocks)
			d.stats.Reads++
			d.stats.BytesRead += uint64(len(comp.Data))
		case c.op == OpFlush:
			d.stats.Flushes++
		}
		d.cq = append(d.cq, comp)
	}
	*c = command{d: d, fire: c.fire}
	d.free = append(d.free, c)
}

// persist copies the first n blocks of gather's bytes into the media at lba:
// the media keeps nothing of the caller's.
func (d *Device) persist(lba int64, n int, gather [][]byte) {
	var blk []byte // what the block being written still lacks
	for _, seg := range gather {
		for len(seg) > 0 {
			if len(blk) == 0 {
				if n == 0 {
					return
				}
				blk, lba, n = d.block(lba), lba+1, n-1
			}
			k := copy(blk, seg)
			blk, seg = blk[k:], seg[k:]
		}
	}
}

// block returns the media's bytes for the block at lba, making its chunk if
// no write has reached the chunk yet.
func (d *Device) block(lba int64) []byte {
	c := d.blocks[lba/chunkBlocks]
	if c == nil {
		c = new(chunk)
		d.blocks[lba/chunkBlocks] = c
	}
	return c.block(lba)
}

// block returns the bytes of the chunk's block at lba.
func (c *chunk) block(lba int64) []byte {
	off := lba % chunkBlocks * BlockSize
	return c[off : off+BlockSize]
}

// read returns a copy of n blocks at lba; unwritten blocks read as zeros.
func (d *Device) read(lba int64, n int) []byte {
	out := make([]byte, n*BlockSize)
	for i := range int64(n) {
		if c := d.blocks[(lba+i)/chunkBlocks]; c != nil {
			copy(out[i*BlockSize:], c.block(lba+i))
		}
	}
	return out
}

// checkRange validates a block range.
func (d *Device) checkRange(lba int64, nBlocks int) error {
	if lba < 0 || nBlocks <= 0 || lba+int64(nBlocks) > d.numBlocks {
		return fmt.Errorf("spdkdev: range [%d, +%d) outside device of %d blocks", lba, nBlocks, d.numBlocks)
	}
	return nil
}

// SubmitWrite submits an asynchronous write, at block lba, of the bytes of
// gather's slices laid end to end; their total length must be a multiple of
// BlockSize. The device reads the bytes when the write completes, so the
// caller must modify neither them nor the list until then: the DMA contract
// of real SPDK, with the list as its scatter-gather descriptor.
func (d *Device) SubmitWrite(lba int64, gather [][]byte, cookie any) error {
	size := 0
	for _, seg := range gather {
		size += len(seg)
	}
	if size%BlockSize != 0 {
		return fmt.Errorf("spdkdev: write of %d bytes not block-aligned", size)
	}
	n := size / BlockSize
	if err := d.checkRange(lba, n); err != nil {
		return err
	}
	cost := d.params.WriteLatency + d.params.transferCost(size) + d.faultCost()
	now := d.node.Now()
	c := d.command(OpWrite, cookie)
	switch {
	case d.flt.IOErr.Fire(now):
		c.err = ErrInjected
	case d.flt.TornWrite.Fire(now):
		c.err = ErrTornWrite
		n = d.flt.TornWrite.Rand().Intn(n)
	}
	c.lba, c.blocks, c.gather = lba, n, gather
	d.schedule(c, cost)
	return nil
}

// SubmitRead submits an asynchronous read of nBlocks blocks at lba.
func (d *Device) SubmitRead(lba int64, nBlocks int, cookie any) error {
	if err := d.checkRange(lba, nBlocks); err != nil {
		return err
	}
	cost := d.params.ReadLatency + d.params.transferCost(nBlocks*BlockSize) + d.faultCost()
	c := d.command(OpRead, cookie)
	if d.flt.IOErr.Fire(d.node.Now()) {
		c.err = ErrInjected
	}
	c.lba, c.blocks = lba, nBlocks
	d.schedule(c, cost)
	return nil
}

// SubmitFlush submits a flush barrier: it completes only after every
// previously submitted command has completed (the pipeline is serial, so
// scheduling position suffices).
func (d *Device) SubmitFlush(cookie any) {
	d.schedule(d.command(OpFlush, cookie), d.params.FlushLatency+d.faultCost())
}

// PollCompletions returns up to max completions. It never blocks. The slice
// is the device's and stays valid until the next call, which reuses it: a
// caller that polls again while still reading it (from a completion
// handler, say) must copy what it has not read yet.
func (d *Device) PollCompletions(max int) []Completion {
	k := min(len(d.cq), max)
	if k == 0 {
		return nil
	}
	clear(d.polled)
	d.polled = append(d.polled[:0], d.cq[:k]...)
	n := copy(d.cq, d.cq[k:])
	clear(d.cq[n:])
	d.cq = d.cq[:n]
	return d.polled
}

// CloneBlocksInto copies this device's durable contents into another
// device, modelling the same physical disk attached after a host restart
// (the destination usually belongs to a fresh simulation). It copies whole
// chunks: a destination block that shares a chunk with one this device
// wrote takes this device's contents, zeros if it never wrote that block.
func (d *Device) CloneBlocksInto(to *Device) {
	for i, c := range d.blocks {
		cp := *c
		to.blocks[i] = &cp
	}
}

// Crash models a power failure: every in-flight command is lost, the
// completion queue is cleared, and durable contents remain. The device is
// immediately usable again (restart).
func (d *Device) Crash() {
	d.epoch++
	d.inflight = 0
	clear(d.cq)
	d.cq = d.cq[:0]
	d.busyUntil = d.node.Now()
	d.stats.Crashes++
}
