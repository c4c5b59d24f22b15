// Package cattree is Demikernel's SPDK storage library OS (paper §6.4): it
// maps the PDPIX queue abstraction onto an abstract log over a block
// device: push appends a record, pop reads sequentially from the queue's
// read cursor, seek moves the cursor, and truncate garbage-collects the
// log. Push qtokens complete only when the write is durable on the
// (simulated) NVMe device, giving the synchronous logging semantics the
// paper's echo and Redis experiments rely on.
//
// Going slightly beyond the paper's minimal single-log Cattree (§6.4
// anticipates "more complex storage stacks"), the device is divided into
// fixed-size partitions, each its own named log; a directory log in
// partition zero records name-to-partition assignments so Mount recovers
// everything after a crash.
//
// Records are self-describing — [magic, generation, length, checksum,
// payload] padded to the block size — so Mount can recover each log tail by
// scanning forward, which the Redis AOF recovery path uses.
package cattree

import (
	"encoding/binary"
	"hash/crc32"
	"sort"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/spdkdev"
	"demikernel/internal/telemetry"
)

// recordMagic marks a valid log record header.
const recordMagic uint32 = 0xCA77EE00

// recordHeaderLen is magic(4) + generation(4) + length(4) + checksum(4).
// The generation is the log's truncation epoch: records from before a
// truncate keep their old generation, so recovery scans stop at them even
// though their magic is intact. The checksum is a CRC-32C over the first
// twelve header bytes and the payload: a torn append whose first block
// persisted has an intact magic, and fails it.
const recordHeaderLen = 16

// castagnoli is the CRC-32C table of record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats counts libOS activity. Each count is exported by pointer through
// the libOS's registry (Telemetry()) under the name publish gives it.
type Stats struct {
	Appends, Reads uint64
	BytesAppended  uint64
	Truncates      uint64
	RecoveredRecs  uint64
}

// publish registers every count of s with reg.
func (s *Stats) publish(reg *telemetry.Registry) {
	reg.Count("cattree.appends", &s.Appends)
	reg.Count("cattree.reads", &s.Reads)
	reg.Count("cattree.bytes_appended", &s.BytesAppended)
	reg.Count("cattree.truncates", &s.Truncates)
	reg.Count("cattree.recovered_recs", &s.RecoveredRecs)
}

// Partitioning constants: partition 0 holds the directory; the rest of
// the device is split evenly among data partitions.
const (
	dirBlocks     = 256
	maxPartitions = 15
)

// partition is one named log's block range and state.
type partition struct {
	name string
	base int64  // first block
	size int64  // blocks
	tail int64  // first free block, relative to base
	gen  uint32 // truncation epoch; only matching records are live
}

// LibOS is a Cattree instance for one node + NVMe device.
type LibOS struct {
	core.FrontEnd
	dev *spdkdev.Device

	parts   map[string]*partition
	nParts  int
	dirTail int64
	recs    []*appendRec // append records between appends
	stats   Stats
}

// New builds a Cattree libOS on a device. The logs are assumed empty; call
// Mount from application context to recover existing logs.
func New(node *sim.Node, dev *spdkdev.Device) *LibOS {
	l := &LibOS{
		dev:   dev,
		parts: make(map[string]*partition),
	}
	reg := telemetry.NewRegistry(node.Name() + "/cattree")
	l.stats.publish(reg)
	l.FrontEnd.Init(l, node, memory.NewHeap(nil), reg, 0)
	l.Heap().PublishTelemetry(reg, "mem")
	sc := l.Sched()
	reg.Sample("sched.polls", func() int64 { return int64(sc.Stats().Polls) })
	reg.Sample("sched.empty_scans", func() int64 { return int64(sc.Stats().EmptyScans) })
	return l
}

// partitionSize returns each data partition's size in blocks.
func (l *LibOS) partitionSize() int64 {
	return (l.dev.NumBlocks() - dirBlocks) / maxPartitions
}

// getPartition returns (allocating and durably recording if new) the
// partition for name.
func (l *LibOS) getPartition(name string) (*partition, error) {
	if p, ok := l.parts[name]; ok {
		return p, nil
	}
	if l.nParts >= maxPartitions {
		return nil, core.ErrInUse
	}
	idx := l.nParts
	l.nParts++
	p := &partition{
		name: name,
		base: dirBlocks + int64(idx)*l.partitionSize(),
		size: l.partitionSize(),
	}
	l.parts[name] = p
	l.appendDirRecord(idx, 0, name)
	return p, nil
}

// appendDirRecord durably records a (partition, generation, name) binding
// in the directory log (asynchronously durable: a crash before completion
// loses the binding and everything it guards, which is consistent).
func (l *LibOS) appendDirRecord(idx int, gen uint32, name string) {
	payload := make([]byte, 5+len(name))
	payload[0] = byte(idx)
	binary.BigEndian.PutUint32(payload[1:5], gen)
	copy(payload[5:], name)
	var hdr [recordHeaderLen]byte
	putHeader(&hdr, 0, [][]byte{payload})
	lba := l.dirTail
	l.dirTail += int64(blocksFor(len(payload)))
	l.dev.SubmitWrite(lba, [][]byte{hdr[:], payload, padding(len(payload))}, nil)
}

// putHeader writes the header of a record whose payload is the pieces laid
// end to end: the magic, the log's generation stamp, the payload length and
// the checksum.
func putHeader(hdr *[recordHeaderLen]byte, gen uint32, payload [][]byte) {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	binary.BigEndian.PutUint32(hdr[0:4], recordMagic)
	binary.BigEndian.PutUint32(hdr[4:8], gen)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(n))
	sum := crc32.Update(0, castagnoli, hdr[:12])
	for _, p := range payload {
		sum = crc32.Update(sum, castagnoli, p)
	}
	binary.BigEndian.PutUint32(hdr[12:16], sum)
}

// recordPayload returns the payload of the whole record data starts with,
// and whether its checksum holds.
func recordPayload(data []byte) ([]byte, bool) {
	payload := data[recordHeaderLen : recordHeaderLen+binary.BigEndian.Uint32(data[8:12])]
	sum := crc32.Update(crc32.Update(0, castagnoli, data[:12]), castagnoli, payload)
	return payload, sum == binary.BigEndian.Uint32(data[12:16])
}

// zeroBlock is what pads every record to a block boundary. The device only
// reads it.
var zeroBlock [spdkdev.BlockSize]byte

// padding returns the zeros that follow a header and n payload bytes to the
// end of the record's last block.
func padding(n int) []byte {
	return zeroBlock[:blocksFor(n)*spdkdev.BlockSize-recordHeaderLen-n]
}

// Node returns the simulated host the libOS runs on, for wiring (spawning
// an application on it), or nil when its host is not a simulated one.
func (l *LibOS) Node() *sim.Node { n, _ := l.Host().(*sim.Node); return n }

// Stats returns the libOS's counts.
func (l *LibOS) Stats() Stats { return l.stats }

// TailBlock returns the first free block of the named log (its end), or
// zero for an unknown name.
func (l *LibOS) TailBlock(name string) int64 {
	if p, ok := l.parts[name]; ok {
		return p.tail
	}
	return 0
}

// Logs returns the number of named logs.
func (l *LibOS) Logs() int { return l.nParts }

// --- core.Stack ---

// Poll drains the completion queue, finishing qtokens. No completion
// handler steps the libOS, so none polls the device again while comps, the
// device's own slice, is still being read.
func (l *LibOS) Poll() bool {
	comps := l.dev.PollCompletions(32)
	if len(comps) == 0 {
		l.Charge(costmodel.PollEmpty)
		return false
	}
	for _, c := range comps {
		l.Charge(costmodel.SPDKComplete)
		switch ck := c.Cookie.(type) {
		case *appendRec:
			ck.done(c)
		case func(spdkdev.Completion):
			ck(c)
		}
	}
	return true
}

// logQueue is one PDPIX open of the device log, with its own read cursor.
type logQueue struct {
	lib      *LibOS
	qd       core.QDesc
	part     *partition
	curBlock int64 // read cursor within the partition (records are padded)
}

// NewSocket is unsupported: Cattree is storage-only; use an integration
// libOS (demi.Combined) for network+storage.
func (l *LibOS) NewSocket(core.QDesc, core.SockType, uint32) (core.Queue, error) {
	return nil, core.ErrNotSupported
}

// OpenLog opens the named log, allocating a partition on first use. Opens
// of the same name share the log but keep independent cursors.
func (l *LibOS) OpenLog(qd core.QDesc, name string) (core.Queue, error) {
	p, err := l.getPartition(name)
	if err != nil {
		return nil, err
	}
	return &logQueue{lib: l, qd: qd, part: p}, nil
}

// Close releases the log queue; the log itself stays on the device.
func (lq *logQueue) Close() {}

// blocksFor returns the blocks needed for a record of n payload bytes.
func blocksFor(n int) int {
	total := recordHeaderLen + n
	return (total + spdkdev.BlockSize - 1) / spdkdev.BlockSize
}

// An appendRec is one append in flight and the device write's cookie.
// Records are recycled through LibOS.recs, which never holds more than the
// most appends ever in flight at once.
type appendRec struct {
	lib    *LibOS
	qd     core.QDesc
	op     *core.Op
	n      int // payload bytes
	hdr    [recordHeaderLen]byte
	segs   []*memory.Buf // the pushed buffers, each IORef'd until the write completes
	gather [][]byte      // hdr, the buffers' bytes, padding: what the device writes
}

// Push appends one record containing sga's bytes; the qtoken completes
// when the record is durable. Nothing is copied here: the device reads the
// pushed buffers themselves when the write completes, and the libOS
// reference each one holds until then is what keeps an application's Free
// right after Push from handing the bytes to someone else first (UAF
// protection across storage, paper §4.1).
func (lq *logQueue) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if to != (core.Addr{}) {
		return core.ErrNotSupported
	}
	l := lq.lib
	n := sga.TotalLen()
	l.Charge(costmodel.SPDKSubmit)
	nBlocks := int64(blocksFor(n))
	if lq.part.tail+nBlocks > lq.part.size {
		op.Fail(lq.qd, core.OpPush, core.ErrQueueClosed) // partition full
		return nil
	}
	lba := lq.part.base + lq.part.tail
	lq.part.tail += nBlocks
	r := l.newRec()
	r.qd, r.op, r.n = lq.qd, op, n
	r.gather = append(r.gather, r.hdr[:])
	for _, b := range sga.Segs {
		b.IORef()
		r.segs = append(r.segs, b)
		r.gather = append(r.gather, b.Bytes())
	}
	putHeader(&r.hdr, lq.part.gen, r.gather[1:])
	r.gather = append(r.gather, padding(n))
	if err := l.dev.SubmitWrite(lba, r.gather, r); err != nil {
		r.done(spdkdev.Completion{Op: spdkdev.OpWrite, Err: err})
	}
	return nil
}

// newRec returns an empty append record, from the free list if one is there.
func (l *LibOS) newRec() *appendRec {
	if k := len(l.recs) - 1; k >= 0 {
		r := l.recs[k]
		l.recs = l.recs[:k]
		return r
	}
	return &appendRec{lib: l}
}

// done finishes the append: the buffers' references go, the record goes
// back on the free list, and the qtoken completes or fails.
func (r *appendRec) done(c spdkdev.Completion) {
	l, qd, op, n := r.lib, r.qd, r.op, r.n
	for _, b := range r.segs {
		b.IOUnref()
	}
	clear(r.segs)
	clear(r.gather)
	r.segs, r.gather, r.op = r.segs[:0], r.gather[:0], nil
	l.recs = append(l.recs, r)
	if c.Err != nil {
		// Injected I/O error or torn write: the reserved blocks stay a hole
		// in the log (replay stops at the bad magic) and the application
		// learns the append failed through the qtoken.
		op.Fail(qd, core.OpPush, c.Err)
		return
	}
	l.stats.Appends++
	l.stats.BytesAppended += uint64(n)
	op.Complete(core.QEvent{QD: qd, Op: core.OpPush})
}

// Pop reads the record at the queue's cursor. At the log end it completes
// immediately with an empty SGA (EOF), so replay loops terminate.
func (lq *logQueue) Pop(op *core.Op) error {
	l, qd := lq.lib, lq.qd
	if lq.curBlock >= lq.part.tail {
		op.Complete(core.QEvent{QD: qd, Op: core.OpPop}) // EOF
		return nil
	}
	l.Charge(costmodel.SPDKSubmit)
	// Read one block to learn the record length, then the rest if needed.
	rel := lq.curBlock
	lba := lq.part.base + rel
	err := l.dev.SubmitRead(lba, 1, func(c spdkdev.Completion) {
		if c.Err != nil {
			op.Fail(qd, core.OpPop, c.Err)
			return
		}
		magic := binary.BigEndian.Uint32(c.Data[0:4])
		gen := binary.BigEndian.Uint32(c.Data[4:8])
		if magic != recordMagic || gen != lq.part.gen {
			op.Fail(qd, core.OpPop, core.ErrQueueClosed)
			return
		}
		nBlocks := blocksFor(int(binary.BigEndian.Uint32(c.Data[8:12])))
		if nBlocks == 1 {
			lq.finishPop(op, rel, c.Data)
			return
		}
		// Multi-block record: read the remainder.
		l.dev.SubmitRead(lba+1, nBlocks-1, func(c2 spdkdev.Completion) {
			if c2.Err != nil {
				op.Fail(qd, core.OpPop, c2.Err)
				return
			}
			lq.finishPop(op, rel, append(append([]byte{}, c.Data...), c2.Data...))
		})
	})
	if err != nil {
		op.Fail(qd, core.OpPop, err)
	}
	return nil
}

// finishPop completes a pop with the payload of the record data holds,
// which starts at block rel of the log, and moves the cursor past it. A
// record whose checksum fails, a torn append, fails the pop as a hole does.
func (lq *logQueue) finishPop(op *core.Op, rel int64, data []byte) {
	payload, ok := recordPayload(data)
	if !ok {
		op.Fail(lq.qd, core.OpPop, core.ErrQueueClosed)
		return
	}
	lq.curBlock = rel + int64(blocksFor(len(payload)))
	lq.lib.stats.Reads++
	buf := memory.CopyFrom(lq.lib.Heap(), payload)
	op.Complete(core.QEvent{QD: lq.qd, Op: core.OpPop, SGA: core.SGA(buf)})
}

// SeekTo moves the read cursor to the given block offset within the log
// (0 rewinds to the head).
func (lq *logQueue) SeekTo(block int64) error {
	lq.curBlock = block
	return nil
}

// Truncate garbage-collects the log: its tail resets to zero. (The paper's
// truncate moves the GC point; a full reset is the degenerate, sufficient
// case for its workloads.)
func (lq *logQueue) Truncate() error {
	l, p := lq.lib, lq.part
	p.tail = 0
	p.gen++
	// Persist the new generation so recovery ignores pre-truncate records.
	idx := int((p.base - dirBlocks) / l.partitionSize())
	l.appendDirRecord(idx, p.gen, p.name)
	l.stats.Truncates++
	return nil
}

// readSync reads n blocks at lba, stepping the libOS until the read
// completes; ok is false if the read could not be submitted or failed.
// Control path only.
func (l *LibOS) readSync(lba int64, n int) (data []byte, ok bool, err error) {
	var c spdkdev.Completion
	done := false
	if l.dev.SubmitRead(lba, n, func(got spdkdev.Completion) { c, done = got, true }) != nil {
		return nil, false, nil
	}
	for !done {
		if !l.Step() && !l.Block(sim.Infinity) {
			return nil, false, core.ErrStopped
		}
	}
	return c.Data, c.Err == nil, nil
}

// readRecordSync synchronously reads the record header at lba, returning
// its payload and total blocks (ok=false at a log end, a generation
// mismatch or a failed checksum; recovery treats an unreadable block as log
// end). Control path only.
func (l *LibOS) readRecordSync(lba int64, wantGen uint32) (payload []byte, blocks int64, ok bool, err error) {
	data, ok, err := l.readSync(lba, 1)
	if !ok || binary.BigEndian.Uint32(data[0:4]) != recordMagic || binary.BigEndian.Uint32(data[4:8]) != wantGen {
		return nil, 0, false, err
	}
	blocks = int64(blocksFor(int(binary.BigEndian.Uint32(data[8:12]))))
	if blocks > 1 {
		rest, ok, err := l.readSync(lba+1, int(blocks-1))
		if !ok {
			return nil, 0, false, err
		}
		data = append(data, rest...)
	}
	payload, ok = recordPayload(data)
	return payload, blocks, ok, nil
}

// Mount recovers the directory and every named log's tail after a restart.
// It blocks the calling application (control path).
func (l *LibOS) Mount() error {
	// Replay the directory log.
	l.parts = make(map[string]*partition)
	l.nParts = 0
	l.dirTail = 0
	for l.dirTail < dirBlocks {
		payload, blocks, ok, err := l.readRecordSync(l.dirTail, 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		l.dirTail += blocks
		if len(payload) < 6 {
			continue
		}
		idx := int(payload[0])
		gen := binary.BigEndian.Uint32(payload[1:5])
		name := string(payload[5:])
		l.parts[name] = &partition{
			name: name,
			base: dirBlocks + int64(idx)*l.partitionSize(),
			size: l.partitionSize(),
			gen:  gen,
		}
		if idx+1 > l.nParts {
			l.nParts = idx + 1
		}
		l.stats.RecoveredRecs++
	}
	// Scan each named log for its tail, in sorted name order so recovery
	// issues device reads in the same order on every run.
	names := make([]string, 0, len(l.parts))
	for name := range l.parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := l.parts[name]
		p.tail = 0
		for p.tail < p.size {
			_, blocks, ok, err := l.readRecordSync(p.base+p.tail, p.gen)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			p.tail += blocks
			l.stats.RecoveredRecs++
		}
	}
	return nil
}
