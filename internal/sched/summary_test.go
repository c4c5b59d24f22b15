package sched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// The summary words must not change what the scheduler does, only how it
// finds it. This file keeps the linear scans they replaced — Runnable,
// runClass and runClassWFQ as they were, verbatim — as the reference, and
// runs one script of spawns, wakes (stale wakers included), polls that end
// Pending, Yield or Done, wakes and spawns from inside a poll, and
// weighted-fair tenants against a scheduler driven by each. Both must poll
// the same coroutines in the same order with the same results, and answer
// Runnable the same after every step.
//
// Mutation-checked: a Done that leaves its block's summary bit set fails
// TestSchedSummaryMatchesLinear within its first seeds.

// refRunOne is RunOne over the reference scans.
func (s *Scheduler) refRunOne() bool {
	for c := Class(0); c < numClasses; c++ {
		if s.refRunClass(c) {
			return true
		}
	}
	s.stats.EmptyScans++
	return false
}

func (s *Scheduler) refRunnable() bool {
	for c := Class(0); c < numClasses; c++ {
		for _, b := range s.classes[c] {
			if b.ready&b.occupied != 0 {
				return true
			}
		}
	}
	return false
}

func (s *Scheduler) refRunClass(c Class) bool {
	if s.wfq {
		return s.refRunClassWFQ(c)
	}
	blocks := s.classes[c]
	n := len(blocks)
	if n == 0 {
		return false
	}
	start := s.cursor[c] % (n * 64)
	startBlock, startSlot := start/64, uint(start%64)
	// The starting block is visited twice: its tail first, its head after
	// the wrap, so iteration covers every slot exactly once.
	for off := 0; off <= n; off++ {
		bi := (startBlock + off) % n
		blk := blocks[bi]
		ready := blk.ready & blk.occupied
		if off == 0 {
			ready &^= (uint64(1) << startSlot) - 1
		} else if off == n {
			ready &= (uint64(1) << startSlot) - 1
		}
		if ready == 0 {
			continue
		}
		slot := uint(bits.TrailingZeros64(ready)) // Lemire's loop: tzcnt
		s.cursor[c] = bi*64 + int(slot) + 1
		s.poll(c, blk, slot)
		return true
	}
	return false
}

func (s *Scheduler) refRunClassWFQ(c Class) bool {
	blocks := s.classes[c]
	n := len(blocks)
	if n == 0 {
		return false
	}
	// Pass 1: which tenants have a ready coroutine in this class?
	var readyT [MaxTenants]bool
	any := false
	for _, blk := range blocks {
		ready := blk.ready & blk.occupied
		for ready != 0 {
			slot := uint(bits.TrailingZeros64(ready))
			ready &^= 1 << slot
			readyT[blk.tens[slot]] = true
			any = true
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

// A script spawns at most maxScriptCoroutines coroutines — enough for more
// than 64 blocks in a class, and a few megabytes — runs RunOne at most
// maxScriptRuns times and is read up to maxScriptBytes, so a fuzzed script
// stays fast.
const (
	maxScriptCoroutines = 12 << 10
	maxScriptRuns       = 32 << 10
	maxScriptBytes      = 4 << 10
)

// schedScript runs a script against one scheduler. The script is one byte
// stream read by the actions and by the coroutines' polls alike, so two
// runs stay in lockstep for as long as their schedulers poll alike.
//
// The first byte arms weighted-fair tenants when odd (three more bytes set
// tenants 1–3's weights). Then each action is a byte and its operands:
//
//	0, 1  RunOne
//	2 y   spawn a coroutine in class y%3 (tenant y>>2&3 under WFQ)
//	3 y   wake handle y (a stale waker once its coroutine is done)
//	4 y z wake every (1+z%64)-th handle from y, 256 at most: wakes
//	      spread over blocks
//	5 y   up to 1+16y RunOnes, stopping when one finds nothing
//	6 y z spawn 64(1+y%80) parked coroutines in class z%3 (tenant z>>2&3)
//	7     RunOne until idle, at most 4 096 times
//
// A coroutine's poll reads one byte x (0 once the script is spent):
// x&3 is the result (0 and 3 Pending, 1 Yield, 2 Done); x&4 wakes itself;
// x&8 wakes the handle named by the next byte; x&16 spawns a coroutine in
// class x>>5%3. A parked coroutine's first poll reads nothing and is
// Pending.
type schedScript struct {
	s        *Scheduler
	runOne   func() bool
	runnable func() bool
	b        []byte
	wfq      bool
	hs       []Handle
	log      []int32
	runs     int

	// What the script went through: the most blocks in a class, and
	// whether a class's cursor came back round to a lower slot.
	maxBlocks int
	wrapped   bool
}

func newSchedScript(script []byte, linear bool) *schedScript {
	h := &schedScript{s: New(), b: script[:min(len(script), maxScriptBytes)]}
	h.runOne, h.runnable = h.s.RunOne, h.s.Runnable
	if linear {
		h.runOne, h.runnable = h.s.refRunOne, h.s.refRunnable
	}
	return h
}

func (h *schedScript) next() byte {
	if len(h.b) == 0 {
		return 0
	}
	x := h.b[0]
	h.b = h.b[1:]
	return x
}

type scripted struct {
	h      *schedScript
	id     int32
	tenant uint8
	parked bool
}

func (co *scripted) Poll(ctx *Context) Poll {
	h := co.h
	if co.parked {
		co.parked = false
		h.log = append(h.log, co.id<<2|int32(Pending))
		return Pending
	}
	x := h.next()
	if x&4 != 0 {
		ctx.Waker().Wake()
	}
	if x&8 != 0 {
		if y := h.next(); len(h.hs) > 0 {
			h.hs[int(y)%len(h.hs)].Wake()
		}
	}
	if x&16 != 0 {
		h.spawn(Class(x>>5%3), co.tenant, false)
	}
	res := Poll(x & 3 % 3)
	h.log = append(h.log, co.id<<2|int32(res))
	return res
}

func (h *schedScript) spawn(c Class, tenant uint8, parked bool) {
	if len(h.hs) >= maxScriptCoroutines {
		return
	}
	co := &scripted{h: h, id: int32(len(h.hs)), tenant: tenant, parked: parked}
	h.hs = append(h.hs, h.s.SpawnTenant(c, tenant, co))
	h.maxBlocks = max(h.maxBlocks, len(h.s.classes[c]))
}

func (h *schedScript) tenant(y byte) uint8 {
	if h.wfq {
		return y >> 2 & 3
	}
	return 0
}

// run polls once and notes a cursor that came back round. Past the run
// budget it polls nothing and reports so.
func (h *schedScript) run() bool {
	if h.runs++; h.runs > maxScriptRuns {
		return false
	}
	before := h.s.cursor
	ran := h.runOne()
	for c := range before {
		if h.s.cursor[c] < before[c] {
			h.wrapped = true
		}
	}
	return ran
}

// play runs the whole script and returns the log: every poll's coroutine
// and result, Runnable after every action, and the counters at the end.
func (h *schedScript) play() []int32 {
	if h.next()&1 != 0 {
		h.wfq = true
		for t := 1; t <= 3; t++ {
			h.s.SetTenantWeight(t, uint32(h.next()%4+1))
		}
	}
	for len(h.b) > 0 {
		switch op := h.next() % 8; op {
		case 0, 1:
			h.run()
		case 2:
			y := h.next()
			h.spawn(Class(y%3), h.tenant(y), false)
		case 3:
			if y := h.next(); len(h.hs) > 0 {
				h.hs[int(y)%len(h.hs)].Wake()
			}
		case 4:
			y, z := int(h.next()), 1+int(h.next())%64
			for i := y; i < min(len(h.hs), y+256*z); i += z {
				h.hs[i].Wake()
			}
		case 5:
			for n := 1 + 16*int(h.next()); n > 0 && h.run(); n-- {
			}
		case 6:
			y, z := int(h.next()), h.next()
			for n := 64 * (1 + y%80); n > 0; n-- {
				h.spawn(Class(z%3), h.tenant(z), true)
			}
		case 7:
			for n := 4096; n > 0 && h.run(); n-- {
			}
		}
		if h.runnable() {
			h.log = append(h.log, -2)
		} else {
			h.log = append(h.log, -1)
		}
	}
	st := h.s.Stats()
	h.log = append(h.log, int32(st.Spawned), int32(st.Completed), int32(st.Polls), int32(st.EmptyScans))
	for c := Class(0); c < numClasses; c++ {
		h.log = append(h.log, int32(h.s.Len(c)), int32(h.s.Ready(c)))
	}
	return h.log
}

// checkSchedScript plays script against the summary and the linear
// scheduler and reports the first step at which they differ. A panic in
// the summary scheduler ends its log where it struck.
func checkSchedScript(script []byte) (h *schedScript, err error) {
	want := newSchedScript(script, true).play()
	h = newSchedScript(script, false)
	defer func() {
		r := recover()
		got := h.log
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				err = fmt.Errorf("log entry %d of %d: summary %s, linear %s", i, len(want), logEntry(got[i]), logEntry(want[i]))
				return
			}
		}
		switch {
		case r != nil:
			err = fmt.Errorf("summary scheduler panicked after log entry %d of %d: %v", len(got), len(want), r)
		case len(got) != len(want):
			err = fmt.Errorf("summary log has %d entries, linear %d", len(got), len(want))
		}
	}()
	h.play()
	return h, nil
}

func logEntry(e int32) string {
	switch {
	case e == -1:
		return "Runnable false"
	case e == -2:
		return "Runnable true"
	}
	return fmt.Sprintf("coroutine %d polled %d", e>>2, e&3)
}

// genSchedScript writes a script. A big one starts by parking more than
// 64 blocks' worth of coroutines in one class.
func genSchedScript(rng *rand.Rand, wfq, big bool) []byte {
	b := []byte{0}
	if wfq {
		b = []byte{1, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4))}
	}
	if big {
		z := byte(rng.Intn(256))
		b = append(b, 6, 39, z, 6, 39, z, 7) // 2 × 2 560 parked, then drained
	}
	for n := 50 + rng.Intn(400); n > 0; n-- {
		switch r := rng.Intn(20); {
		case r < 8:
			b = append(b, byte(rng.Intn(2)))
		case r < 11:
			b = append(b, 2, byte(rng.Intn(256)))
		case r < 14:
			b = append(b, 3, byte(rng.Intn(256)))
		case r < 15:
			b = append(b, 4, byte(rng.Intn(64)), byte(rng.Intn(256)))
		case r < 17:
			b = append(b, 5, byte(rng.Intn(8)))
		case r < 18 && big:
			b = append(b, 6, byte(rng.Intn(4)), byte(rng.Intn(256)))
		default:
			b = append(b, 7)
		}
		// The bytes the polls will read.
		for k := rng.Intn(3); k > 0; k-- {
			b = append(b, byte(rng.Intn(256)))
		}
	}
	return b
}

func TestSchedSummaryMatchesLinear(t *testing.T) {
	var big, wrapped, wfq bool
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genSchedScript(rng, seed%3 == 0, seed%5 == 0)
		h, err := checkSchedScript(script)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		big = big || h.maxBlocks > 64
		wrapped = wrapped || h.wrapped
		wfq = wfq || h.s.wfq
	}
	// The sweep must have been through the cases it is there for.
	if !big || !wrapped || !wfq {
		t.Errorf("more than 64 blocks in a class %v, a cursor wrapped %v, WFQ %v; want all three", big, wrapped, wfq)
	}
}

// FuzzSchedSummary runs arbitrary scripts through checkSchedScript. Its
// checked-in corpus (testdata/fuzz/FuzzSchedSummary) holds scripts from
// genSchedScript, big and WFQ ones among them.
func FuzzSchedSummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if _, err := checkSchedScript(script); err != nil {
			t.Fatal(err)
		}
	})
}
