package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/sim"
)

// The traced pass attributes each request's wall time to layers from
// outside the program: decorators around the seams the code already exposes
// (demi.LibOS, catnip.Device, demi.StorOS) record a span per call into a
// preallocated per-node buffer. Nothing inside internal/ knows it is being
// traced, and end-to-end metrics never come from a traced pass.

type spanKind uint8

const (
	spReq      spanKind = iota // one client request; opened by the harness
	spPush                     // LibOS.Push
	spPop                      // LibOS.Pop
	spWait                     // Wait/WaitAny: the loop the wrapper runs itself
	spTake                     // one TryTake scan over the waited tokens
	spStep                     // Step(): catnip+wire+sched work, device spans inside
	spBlock                    // Block(): parked, another node or the engine runs
	spSetup                    // Socket, Accept, Connect, Close
	spDevRx                    // catnip.Device.RxBurst
	spDevTx                    // catnip.Device.TxBurst
	spStorPush                 // demi.StorOS.Push
	numKinds
)

var kindNames = [numKinds]string{
	"req", "push", "pop", "wait", "take", "step", "block", "setup",
	"dev.rx_burst", "dev.tx_burst", "stor.push",
}

// A span is one timed call: {name, node, start, end, parent, request id}.
// Child accumulates how much of the measured window the span's closed
// children cover, so its self time — duration minus child coverage, both
// inside the window — needs no second pass.
type span struct {
	Start, End int64 // ns on the tracer's clock
	Child      int64
	ID, Parent uint32 // per-node ids from 1; Parent 0 marks a top-level span
	Req        uint32 // request current on the client when the span opened
	Kind       spanKind
	Aux        uint16 // frames in a device burst; request class on spReq
}

// tracer is one traced pass's shared state.
type tracer struct {
	clock func() int64 // ns; injectable for the self-time tests
	nodes []*nodeTrace

	// req is the id of the request the client is on; every span is tagged
	// with it. lo and hi are the first request of the measured window and
	// the first after it; the harness stores the window's start and end
	// times when it gets there (until then they are "never"), and only the
	// part of a span inside them counts toward the layer totals — warm-up
	// and teardown fall outside.
	req              atomic.Uint32
	lo, hi           uint32
	winStart, winEnd atomic.Int64

	// Time with every node inside Block belongs to no node: it is the sim
	// engine running events and handing the baton over (or, on Catnap, the
	// kernel moving bytes). blocked counts nodes inside Block; idleSince
	// is when the last one entered.
	blocked   atomic.Int32
	idleSince atomic.Int64
	idleNs    atomic.Int64
}

// newTracer returns a tracer whose window is requests [lo, hi); clock nil
// means the wall clock.
func newTracer(lo, hi uint32, clock func() int64) *tracer {
	if clock == nil {
		epoch := time.Now()
		clock = func() int64 { return int64(time.Since(epoch)) }
	}
	t := &tracer{clock: clock, lo: lo, hi: hi}
	t.winStart.Store(math.MaxInt64)
	t.winEnd.Store(math.MaxInt64)
	return t
}

// clip returns how much of [from, to] lies inside the measured window.
func (t *tracer) clip(from, to int64) int64 {
	return max(0, min(to, t.winEnd.Load())-max(from, t.winStart.Load()))
}

// inWindow reports whether the instant at lies inside the measured window.
func (t *tracer) inWindow(at int64) bool { return at >= t.winStart.Load() && at < t.winEnd.Load() }

// spanBufCap bounds a node's span buffer; a full buffer is folded into the
// node's totals and reused. keepSpans is how many spans per node survive
// for the dump written when the run ends.
const (
	spanBufCap = 1 << 16
	keepSpans  = 1 << 14
	maxDepth   = 8
)

// nodeTrace is one node's span buffer. Only that node's thread of control
// touches it, so it needs no lock (in the simulator one goroutine runs at a
// time; on Catnap client and server each own theirs).
type nodeTrace struct {
	t     *tracer
	name  string
	buf   []span
	stack [maxDepth]int32 // buffer indices of the open spans, outermost first
	depth int
	next  uint32 // last span id issued
	kept  []span
	agg   nodeAgg
}

// nodeAgg is what a node's folded spans add up to inside the window.
type nodeAgg struct {
	self  [numKinds]int64 // ns of self time
	count [numKinds]int64
	top   int64 // ns covered by top-level spans
	// Device bursts.
	rxCalls, rxEmpty, rxFrames int64
	// Request spans by class (kv: 0 GET, 1 SET).
	reqNs, reqN [2]int64
}

func (t *tracer) node(name string) *nodeTrace {
	n := &nodeTrace{t: t, name: name,
		buf: make([]span, 0, spanBufCap), kept: make([]span, 0, keepSpans)}
	t.nodes = append(t.nodes, n)
	return n
}

func (n *nodeTrace) now() int64 { return n.t.clock() }

// open starts a span of kind k, a child of the innermost open span; close
// ends the innermost open span. The At forms take the timestamp, so that
// back-to-back spans share one clock reading and leave no gap between them.
func (n *nodeTrace) open(k spanKind)  { n.openAt(k, n.now()) }
func (n *nodeTrace) close(aux uint16) { n.closeAt(aux, n.now()) }

func (n *nodeTrace) openAt(k spanKind, at int64) {
	if len(n.buf) == cap(n.buf) {
		n.fold()
	}
	n.next++
	s := span{Start: at, ID: n.next, Req: n.t.req.Load(), Kind: k}
	if n.depth > 0 {
		s.Parent = n.buf[n.stack[n.depth-1]].ID
	}
	n.stack[n.depth] = int32(len(n.buf))
	n.depth++
	n.buf = append(n.buf, s)
}

func (n *nodeTrace) closeAt(aux uint16, at int64) {
	n.depth--
	s := &n.buf[n.stack[n.depth]]
	s.End = at
	s.Aux = aux
	if n.depth > 0 {
		n.buf[n.stack[n.depth-1]].Child += n.t.clip(s.Start, s.End)
	}
}

// fold adds every closed span to the node's totals and compacts the buffer
// down to the still-open spans.
func (n *nodeTrace) fold() {
	open := 0
	for i := range n.buf {
		s := &n.buf[i]
		if open < n.depth && n.stack[open] == int32(i) {
			n.buf[open] = *s
			n.stack[open] = int32(open)
			open++
			continue
		}
		if len(n.kept) < cap(n.kept) && s.Req >= n.t.lo {
			n.kept = append(n.kept, *s)
		}
		n.agg.add(s, n.t)
	}
	n.buf = n.buf[:open]
}

func (a *nodeAgg) add(s *span, t *tracer) {
	in := t.clip(s.Start, s.End)
	a.self[s.Kind] += in - s.Child
	if s.Parent == 0 {
		a.top += in
	}
	if !t.inWindow(s.Start) {
		return
	}
	a.count[s.Kind]++
	switch s.Kind {
	case spDevRx:
		a.rxCalls++
		if s.Aux == 0 {
			a.rxEmpty++
		}
		a.rxFrames += int64(s.Aux)
	case spReq:
		a.reqNs[s.Aux&1] += s.End - s.Start
		a.reqN[s.Aux&1]++
	}
}

// enterBlock and exitBlock bracket a node's Block call.
func (n *nodeTrace) enterBlock(at int64) {
	n.openAt(spBlock, at)
	if int(n.t.blocked.Add(1)) == len(n.t.nodes) {
		n.t.idleSince.Store(at)
	}
}

func (n *nodeTrace) exitBlock(at int64) {
	if int(n.t.blocked.Add(-1)) == len(n.t.nodes)-1 {
		n.t.idleNs.Add(n.t.clip(n.t.idleSince.Load(), at))
	}
	n.closeAt(0, at)
}

// writeSpans dumps the kept spans, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, n := range t.nodes {
		for i := range n.kept {
			s := &n.kept[i]
			fmt.Fprintf(w, `{"name":%q,"node":%q,"start":%d,"end":%d,"id":%d,"parent":%d,"req":%d,"aux":%d}`+"\n",
				kindNames[s.Kind], n.name, s.Start, s.End, s.ID, s.Parent, s.Req, s.Aux)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driver is the seam a wait loop is built from — what internal/baseline
// drives to charge kernel costs, used here to time each part of a wait.
type driver interface {
	TryTake(qt core.QToken) (core.QEvent, bool, error)
	Step() bool
	Block(deadline sim.Time) bool
	Now() sim.Time
}

// tracedOS decorates a libOS: a span around every PDPIX call, and Wait and
// WaitAny implemented here from TryTake/Step/Block with exactly the loop,
// scan rotation and timeout rule of core.Waiter — the traced pass must
// reproduce the untraced pass's virtual latencies bit for bit. Calls not
// overridden (Bind, Listen, Queue, Open, PushTo, WaitAll, Heap) pass through.
type tracedOS struct {
	demi.LibOS
	drv driver
	n   *nodeTrace
	rr  int
}

func (t *tracedOS) Socket(st core.SockType) (core.QDesc, error) {
	t.n.open(spSetup)
	qd, err := t.LibOS.Socket(st)
	t.n.close(0)
	return qd, err
}

func (t *tracedOS) Accept(qd core.QDesc) (core.QToken, error) {
	t.n.open(spSetup)
	qt, err := t.LibOS.Accept(qd)
	t.n.close(0)
	return qt, err
}

func (t *tracedOS) Connect(qd core.QDesc, a core.Addr) (core.QToken, error) {
	t.n.open(spSetup)
	qt, err := t.LibOS.Connect(qd, a)
	t.n.close(0)
	return qt, err
}

func (t *tracedOS) Close(qd core.QDesc) error {
	t.n.open(spSetup)
	err := t.LibOS.Close(qd)
	t.n.close(0)
	return err
}

func (t *tracedOS) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	t.n.open(spPush)
	qt, err := t.LibOS.Push(qd, sga)
	t.n.close(0)
	return qt, err
}

func (t *tracedOS) Pop(qd core.QDesc) (core.QToken, error) {
	t.n.open(spPop)
	qt, err := t.LibOS.Pop(qd)
	t.n.close(0)
	return qt, err
}

func (t *tracedOS) Wait(qt core.QToken) (core.QEvent, error) {
	_, ev, err := t.WaitAny([]core.QToken{qt}, -1)
	return ev, err
}

func (t *tracedOS) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	n := t.n
	at := n.now()
	n.openAt(spWait, at)
	// leave closes the innermost span and the wait span around it.
	leave := func() {
		at := n.now()
		n.closeAt(0, at)
		n.closeAt(0, at)
	}
	deadline := sim.Infinity
	if timeout >= 0 {
		deadline = t.drv.Now().Add(timeout)
	}
	for {
		n.openAt(spTake, at)
		for k := range qts {
			i := (t.rr + k) % len(qts)
			ev, done, err := t.drv.TryTake(qts[i])
			if err != nil {
				leave()
				return -1, core.QEvent{}, err
			}
			if done {
				if len(qts) > 1 {
					t.rr = i + 1
				}
				leave()
				return i, ev, nil
			}
		}
		at = n.now()
		n.closeAt(0, at)
		n.openAt(spStep, at)
		ran := t.drv.Step()
		at = n.now()
		n.closeAt(0, at)
		if ran {
			continue
		}
		if t.drv.Now() >= deadline {
			n.closeAt(0, at)
			return -1, core.QEvent{}, core.ErrTimeout
		}
		n.enterBlock(at)
		ok := t.drv.Block(deadline)
		at = n.now()
		n.exitBlock(at)
		if !ok {
			n.closeAt(0, at)
			return -1, core.QEvent{}, core.ErrStopped
		}
	}
}

// tracedStorageOS is tracedOS for a libOS with a storage log (demi.Combined):
// apps/kv reaches Seek and Truncate through a type assertion, which the
// wrapper must keep answering.
type tracedStorageOS struct {
	*tracedOS
	demi.StorageOS
}

// tracedDev decorates the raw NIC queue pair handed to catnip.NewOnDevice.
type tracedDev struct {
	catnip.Device
	n *nodeTrace
}

func (d *tracedDev) RxBurst(max int) []*dpdkdev.Mbuf {
	d.n.open(spDevRx)
	m := d.Device.RxBurst(max)
	d.n.close(uint16(len(m)))
	return m
}

func (d *tracedDev) TxBurst(frames [][]byte) int {
	d.n.open(spDevTx)
	k := d.Device.TxBurst(frames)
	d.n.close(uint16(k))
	return k
}

// tracedStor decorates the storage libOS handed to demi.NewCombined.
type tracedStor struct {
	demi.StorOS
	n *nodeTrace
}

func (s *tracedStor) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	s.n.open(spStorPush)
	qt, err := s.StorOS.Push(qd, sga)
	s.n.close(0)
	return qt, err
}

// layerTotals is a traced pass reduced to per-request numbers.
type layerTotals struct {
	selfNs                       [numKinds]float64 // self time per request, summed over nodes
	perReq                       [numKinds]float64 // spans per request
	idleNs                       float64           // every node in Block: engine + handoff
	clientNs                     float64           // client app code: self time of request spans
	serverNs                     float64           // server nodes outside any span
	rxEmptyShare, framesPerBurst float64
	classNs                      [2]float64 // mean request span by class
	covered                      float64    // sum of all of the above, per request
	wallNs                       float64    // the window's wall time per request, slice gaps included
}

// totals folds what is still buffered and reduces the pass to per-request
// numbers over the window's hi-lo requests.
func (t *tracer) totals() layerTotals {
	var lt layerTotals
	windowNs := t.winEnd.Load() - t.winStart.Load()
	r := float64(t.hi - t.lo)
	lt.wallNs = float64(windowNs) / r
	var rxCalls, rxEmpty, rxFrames int64
	var classNs, classN [2]int64
	for i, n := range t.nodes {
		n.fold()
		for k := spanKind(0); k < numKinds; k++ {
			if k == spBlock {
				continue // a parked node's time belongs to whoever runs
			}
			lt.selfNs[k] += float64(n.agg.self[k]) / r
		}
		for k := range n.agg.count {
			lt.perReq[k] += float64(n.agg.count[k]) / r
		}
		if i > 0 {
			lt.serverNs += float64(windowNs-n.agg.top) / r
		}
		rxCalls += n.agg.rxCalls
		rxEmpty += n.agg.rxEmpty
		rxFrames += n.agg.rxFrames
		for c := range classNs {
			classNs[c] += n.agg.reqNs[c]
			classN[c] += n.agg.reqN[c]
		}
	}
	lt.clientNs = lt.selfNs[spReq]
	lt.idleNs = float64(t.idleNs.Load()) / r
	if rxCalls > 0 {
		lt.rxEmptyShare = float64(rxEmpty) / float64(rxCalls)
	}
	if full := rxCalls - rxEmpty; full > 0 {
		lt.framesPerBurst = float64(rxFrames) / float64(full)
	}
	for c := range classNs {
		if classN[c] > 0 {
			lt.classNs[c] = float64(classNs[c]) / float64(classN[c])
		}
	}
	for k := spanKind(0); k < numKinds; k++ {
		lt.covered += lt.selfNs[k]
	}
	lt.covered += lt.idleNs + lt.serverNs
	return lt
}
