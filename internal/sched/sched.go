// Package sched implements Demikernel's nanosecond-scale coroutine
// scheduler (paper §5.4). Coroutines are poll-based state machines — the Go
// analogue of the Rust futures the paper compiles — and are cooperative and
// blockable: a coroutine that cannot progress stashes its Waker with the
// event source and returns Pending; whoever triggers the event calls Wake,
// flipping a readiness bit that moves the coroutine back to the runnable
// set.
//
// Readiness bits live in waker blocks of 64 coroutines each, and each
// class keeps summary words with one bit per block, set while the block has
// a ready coroutine. The scheduler finds runnable coroutines by iterating
// set bits with count-trailing-zeros (Lemire's loop; x86 tzcnt) — over the
// summary for the block, then over the block for the slot — so a poll over
// thousands of mostly-blocked coroutines touches only a handful of words.
//
// Scheduling policy (paper §5.4): runnable application coroutines first,
// then background coroutines, then the always-runnable fast-path coroutine,
// FIFO within a class.
package sched

import "math/bits"

// Poll is a coroutine step result.
type Poll int

const (
	// Pending means the coroutine is blocked; it will not be polled again
	// until its Waker fires.
	Pending Poll = iota
	// Yield means the coroutine made progress and can run again
	// immediately; it stays in the runnable set.
	Yield
	// Done means the coroutine finished and is removed from the scheduler.
	Done
)

// A Coroutine is a pollable task: one application request, one background
// protocol duty (retransmission, acking), or a device fast path.
type Coroutine interface {
	// Poll advances the coroutine. A coroutine returning Pending must have
	// arranged for ctx.Waker() to be woken, or it will sleep forever.
	Poll(ctx *Context) Poll
}

// Func adapts a plain function to the Coroutine interface.
type Func func(ctx *Context) Poll

// Poll implements Coroutine.
func (f Func) Poll(ctx *Context) Poll { return f(ctx) }

// Class is a scheduling priority class.
type Class int

const (
	// App coroutines run application request handlers (one per blocked
	// qtoken); highest priority.
	App Class = iota
	// Background coroutines do protocol housekeeping (TCP retransmit,
	// pure acks, flow-control refills).
	Background
	// FastPath coroutines poll device queues; always runnable, lowest
	// priority so they fill otherwise-idle cycles.
	FastPath
	numClasses
)

// Context is passed to every Poll and carries the coroutine's own Waker so
// it can register with event sources before blocking.
type Context struct {
	waker Waker
}

// Waker returns the running coroutine's waker, which event sources may
// copy and keep for the coroutine's lifetime.
func (c *Context) Waker() Waker { return c.waker }

// A Waker marks one coroutine runnable. It is a small value safe to copy
// and store with event sources. Wake is idempotent, and a waker left over
// from a completed coroutine is a no-op even if its slot was reused: each
// waker carries the slot generation it was minted for. It is 16 bytes, the
// most of a host's timer cell (core.Timer).
type Waker struct {
	block *wakerBlock
	slot  uint32
	gen   uint32
}

// Wake sets the coroutine's readiness bit, and its block's summary bit.
func (w Waker) Wake() {
	b := w.block
	if b != nil && b.occupied&(1<<w.slot) != 0 && b.gens[w.slot] == w.gen {
		b.ready |= 1 << w.slot
		*b.sum |= b.bit
	}
}

// wakerBlock holds readiness for up to 64 coroutines of one class, plus
// their contexts. ready and occupied are the bitsets the scheduler scans;
// ready is a subset of occupied. sum is the class summary word that holds
// the block's bit, set exactly while ready is not zero.
// tens tags each slot with its tenant index for weighted-fair picking.
type wakerBlock struct {
	ready    uint64
	occupied uint64
	sum      *uint64
	bit      uint64
	gens     [64]uint32
	tens     [64]uint8
	cos      [64]Coroutine
	ctxs     [64]Context
}

// Handle identifies a spawned coroutine.
type Handle struct {
	waker Waker
}

// Wake marks the coroutine runnable (e.g. its qtoken's data arrived).
func (h Handle) Wake() { h.waker.Wake() }

// Waker returns the coroutine's waker, for an event source to keep.
func (h Handle) Waker() Waker { return h.waker }

// NumClasses is the number of scheduling classes, for per-class stat arrays.
const NumClasses = int(numClasses)

// ClassName returns a class's mnemonic for metric names.
func ClassName(c Class) string {
	switch c {
	case App:
		return "app"
	case Background:
		return "background"
	case FastPath:
		return "fastpath"
	}
	return "class?"
}

// Stats counts scheduler activity.
type Stats struct {
	Spawned, Completed uint64
	Polls              uint64
	EmptyScans         uint64             // RunOne calls that found nothing runnable
	PollsByClass       [NumClasses]uint64 // per-class share of Polls
}

// MaxTenants is the number of dense tenant indices the scheduler's
// weighted-fair state is sized for (index 0 is the host tenant). Fixed
// arrays, not maps: a switch allocates nothing (TestRunOneAllocs).
const MaxTenants = 16

// Scheduler runs one core's coroutines. It is single-threaded by design.
type Scheduler struct {
	classes [numClasses][]*wakerBlock
	// sums[c][k] is class c's summary word for blocks 64k to 64k+63. Each
	// word is an object of its own, so a block's pointer to it stays valid
	// as the slice grows.
	sums   [numClasses][]*uint64
	cursor [numClasses]int // round-robin start slot per class
	count  [numClasses]int
	stats  Stats

	// Weighted-fair queuing across tenants (ROADMAP multi-tenant item):
	// within a class, the ready tenant with the smallest virtual time
	// (polls charged / weight) runs next, so a flooding tenant's ready
	// swarm cannot monopolize poll cycles. wfq stays false until a
	// nonzero tenant appears, keeping the single-tenant path bit-exact.
	wfq     bool
	weights [MaxTenants]uint32 // 0 means weight 1
	tpolls  [MaxTenants]uint64 // polls charged per tenant (the virtual clock)
	tlive   [MaxTenants]int    // live coroutines per tenant
	tcursor [numClasses][MaxTenants]int
}

// New returns an empty scheduler.
func New() *Scheduler { return &Scheduler{} }

// Stats returns a snapshot of scheduler counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Runnable reports whether any coroutine is ready to run.
func (s *Scheduler) Runnable() bool {
	for c := range s.sums {
		for _, w := range s.sums[c] {
			if *w != 0 {
				return true
			}
		}
	}
	return false
}

// Len returns the number of live coroutines in the class.
func (s *Scheduler) Len(c Class) int { return s.count[c] }

// Ready returns the class's runnable-queue depth: live coroutines whose
// readiness bit is set.
func (s *Scheduler) Ready(c Class) int {
	n := 0
	for _, b := range s.classes[c] {
		n += bits.OnesCount64(b.ready & b.occupied)
	}
	return n
}

// SetTenantWeight sets a tenant's weighted-fair share (default 1). Any
// nonzero tenant index arms WFQ picking for every class.
func (s *Scheduler) SetTenantWeight(tenant int, weight uint32) {
	if tenant < 0 || tenant >= MaxTenants {
		panic("sched: tenant index out of range")
	}
	s.weights[tenant] = weight
	if tenant != 0 {
		s.wfq = true
	}
}

// TenantPolls returns the polls charged to a tenant index so far.
func (s *Scheduler) TenantPolls(tenant int) uint64 { return s.tpolls[tenant] }

// weightOf returns a tenant's effective weight (unset = 1).
func (s *Scheduler) weightOf(tenant int) uint64 {
	if w := s.weights[tenant]; w != 0 {
		return uint64(w)
	}
	return 1
}

// Spawn adds a coroutine in the given class, initially runnable, and
// returns its handle. The coroutine belongs to the host tenant.
func (s *Scheduler) Spawn(c Class, co Coroutine) Handle {
	return s.SpawnTenant(c, 0, co)
}

// SpawnTenant is Spawn with the coroutine charged to a tenant index. A
// tenant going from idle to active has its virtual clock clamped forward
// to the lightest active tenant's, so banked idle time cannot be spent as
// a monopolizing burst.
func (s *Scheduler) SpawnTenant(c Class, tenant uint8, co Coroutine) Handle {
	if int(tenant) >= MaxTenants {
		panic("sched: tenant index out of range")
	}
	if tenant != 0 {
		s.wfq = true
	}
	if s.wfq && s.tlive[tenant] == 0 {
		minV := uint64(0)
		found := false
		for t := 0; t < MaxTenants; t++ {
			if t == int(tenant) || s.tlive[t] == 0 {
				continue
			}
			v := s.tpolls[t] / s.weightOf(t)
			if !found || v < minV {
				minV, found = v, true
			}
		}
		if found {
			if floor := minV * s.weightOf(int(tenant)); s.tpolls[tenant] < floor {
				s.tpolls[tenant] = floor
			}
		}
	}
	s.tlive[tenant]++
	blocks := s.classes[c]
	var blk *wakerBlock
	var slot uint
	for _, b := range blocks {
		if b.occupied != ^uint64(0) {
			blk = b
			slot = uint(bits.TrailingZeros64(^b.occupied))
			break
		}
	}
	if blk == nil {
		n := len(blocks)
		if n%64 == 0 {
			s.sums[c] = append(s.sums[c], new(uint64))
		}
		blk = &wakerBlock{sum: s.sums[c][n/64], bit: 1 << (n % 64)}
		s.classes[c] = append(s.classes[c], blk)
		slot = 0
	}
	blk.occupied |= 1 << slot
	blk.ready |= 1 << slot
	*blk.sum |= blk.bit
	blk.gens[slot]++
	blk.tens[slot] = tenant
	blk.cos[slot] = co
	w := Waker{block: blk, slot: uint32(slot), gen: blk.gens[slot]}
	blk.ctxs[slot] = Context{waker: w}
	s.count[c]++
	s.stats.Spawned++
	return Handle{waker: w}
}

// RunOne polls the highest-priority runnable coroutine, if any, and reports
// whether one ran. FastPath coroutines are polled even when their readiness
// bit is clear only if they were spawned ready — by convention fast paths
// always return Yield, so they stay ready.
func (s *Scheduler) RunOne() bool {
	for c := Class(0); c < numClasses; c++ {
		if s.runClass(c) {
			return true
		}
	}
	s.stats.EmptyScans++
	return false
}

// runClass finds and polls one ready coroutine in class c, scanning
// round-robin from the slot after the last one run so same-class
// coroutines cannot starve each other. The starting block is visited
// twice — its tail first, then every later block, then every earlier one,
// then its head — so the scan covers every slot exactly once; the blocks
// between come from the summary words, not from a walk over all of them.
func (s *Scheduler) runClass(c Class) bool {
	if s.wfq {
		return s.runClassWFQ(c)
	}
	blocks := s.classes[c]
	n := len(blocks)
	if n == 0 {
		return false
	}
	start := s.cursor[c] % (n * 64)
	bi, head := start/64, uint64(1)<<(start%64)-1
	ready := blocks[bi].ready &^ head
	if ready == 0 {
		if b := s.readyBlock(c, bi+1, n); b >= 0 {
			bi, ready = b, blocks[b].ready
		} else if b := s.readyBlock(c, 0, bi); b >= 0 {
			bi, ready = b, blocks[b].ready
		} else if ready = blocks[bi].ready & head; ready == 0 {
			return false
		}
	}
	slot := uint(bits.TrailingZeros64(ready)) // Lemire's loop: tzcnt
	s.cursor[c] = bi*64 + int(slot) + 1
	s.poll(c, blocks[bi], slot)
	return true
}

// readyBlock returns the first block of class c in [from, to) whose
// summary bit is set, or -1.
func (s *Scheduler) readyBlock(c Class, from, to int) int {
	sums := s.sums[c]
	mask := ^uint64(0) << (from % 64)
	for k := from / 64; k*64 < to; k, mask = k+1, ^uint64(0) {
		if w := *sums[k] & mask; w != 0 {
			if b := k*64 + bits.TrailingZeros64(w); b < to {
				return b
			}
			return -1
		}
	}
	return -1
}

// runClassWFQ is runClass under weighted-fair queuing: among tenants with
// a ready coroutine in the class, pick the one with the smallest virtual
// time (polls/weight, compared by cross-multiplication — no division or
// floats on the hot path), then round-robin within that tenant via its own
// cursor. Ties go to the lower tenant index, deterministically.
func (s *Scheduler) runClassWFQ(c Class) bool {
	blocks := s.classes[c]
	n := len(blocks)
	if n == 0 {
		return false
	}
	// Pass 1: which tenants have a ready coroutine in this class? Only the
	// blocks the summary words name are read.
	var readyT [MaxTenants]bool
	any := false
	for k, w := range s.sums[c] {
		for sum := *w; sum != 0; sum &= sum - 1 {
			blk := blocks[k*64+bits.TrailingZeros64(sum)]
			for ready := blk.ready; ready != 0; ready &= ready - 1 {
				readyT[blk.tens[bits.TrailingZeros64(ready)]] = true
				any = true
			}
		}
	}
	if !any {
		return false
	}
	// Pass 2: smallest virtual time among ready tenants.
	best := -1
	for t := 0; t < MaxTenants; t++ {
		if !readyT[t] {
			continue
		}
		if best < 0 || s.tpolls[t]*s.weightOf(best) < s.tpolls[best]*s.weightOf(t) {
			best = t
		}
	}
	// Pass 3: round-robin within the chosen tenant, per-tenant cursor.
	start := s.tcursor[c][best] % (n * 64)
	startBlock, startSlot := start/64, uint(start%64)
	for off := 0; off <= n; off++ {
		bi := (startBlock + off) % n
		blk := blocks[bi]
		ready := blk.ready & blk.occupied
		if off == 0 {
			ready &^= (uint64(1) << startSlot) - 1
		} else if off == n {
			ready &= (uint64(1) << startSlot) - 1
		}
		for ready != 0 {
			slot := uint(bits.TrailingZeros64(ready))
			ready &^= 1 << slot
			if int(blk.tens[slot]) != best {
				continue
			}
			s.tcursor[c][best] = bi*64 + int(slot) + 1
			s.poll(c, blk, slot)
			return true
		}
	}
	return false
}

// poll runs one coroutine slot and applies its result. The Coroutine.Poll
// dispatch is the one dynamic call on the path; what each Poll
// implementation allocates is its own package's guard's business.
func (s *Scheduler) poll(c Class, blk *wakerBlock, slot uint) {
	bit := uint64(1) << slot
	blk.ready &^= bit // clear before polling: wakes during poll are kept
	if blk.ready == 0 {
		*blk.sum &^= blk.bit
	}
	s.stats.Polls++
	s.stats.PollsByClass[c]++
	s.tpolls[blk.tens[slot]]++
	switch blk.cos[slot].Poll(&blk.ctxs[slot]) {
	case Yield:
		blk.ready |= bit
		*blk.sum |= blk.bit
	case Done:
		blk.occupied &^= bit
		if blk.ready &^= bit; blk.ready == 0 {
			*blk.sum &^= blk.bit
		}
		blk.cos[slot] = nil
		s.count[c]--
		s.tlive[blk.tens[slot]]--
		s.stats.Completed++
	case Pending:
		// Readiness bit stays as the coroutine's waker left it: if an
		// event fired mid-poll the coroutine runs again; otherwise it
		// sleeps until Wake.
	}
}

// RunUntilIdle polls until no coroutine is runnable, with a safety budget
// to bound livelock from always-Yield coroutines. It returns the number of
// polls performed. Fast-path coroutines count against the budget like any
// other, so callers typically use RunOne in their own loop instead; this
// helper serves tests and simple drivers.
func (s *Scheduler) RunUntilIdle(budget int) int {
	polls := 0
	for polls < budget && s.RunOne() {
		polls++
	}
	return polls
}
