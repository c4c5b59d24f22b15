package core

import (
	"demikernel/internal/dtrace"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// A QToken is a slot and a generation: the index of a TokenTable slot, plus
// one, in its low tokenIdxBits bits and that slot's generation in the
// tokenGenBits above them. Bit 63 is never set, and InvalidQToken, whose
// index field is zero, names no slot.
// A slot's generation moves at every redemption, so the token just redeemed
// and every older token for the slot have stopped matching it — until the
// generation wraps, which at a redemption every 100 ns takes one slot
// fifteen hours.
const (
	tokenIdxBits = 24
	tokenIdxMask = 1<<tokenIdxBits - 1
	tokenGenBits = 39
	tokenGenMask = 1<<tokenGenBits - 1
)

// tokenSlot is what a probe reads, in line: 24 bytes.
type tokenSlot struct {
	// qt is the one token that names the slot now. A free slot keeps its
	// generation here with the index field zero, which no token presented
	// for the slot can equal, so one compare checks generation, liveness
	// and bit 63 together.
	qt QToken
	op *Op // nil while the slot is free
	// tenant is the issuing principal (0 = the host/infra tenant). A free
	// slot keeps the free list's link here: the next free slot's index + 1.
	tenant uint32
	done   bool
}

// Op is one outstanding operation's state in the token table. Library OSes
// create an Op when a libcall is issued and complete it from their I/O
// stacks; the wait machinery redeems it. The table forgets an Op at
// redemption; the stack that completed it may hold the pointer longer, which
// is why an Op is a Go object of its own and not the slot (one 128-byte
// object per operation: TestTokenCycleAllocs).
type Op struct {
	qt          QToken // names the slot the table keeps this Op in
	seq         uint64 // issue number: 1, 2, 3, … per table, what spans carry
	ev          QEvent
	tbl         *TokenTable // owning table
	issuedAt    sim.Time
	completedAt sim.Time
	trace       uint64 // distributed-trace context stamped by the libOS at issue
	done        bool
}

// Trace stamps the operation with a distributed-trace context. LibOSes call
// it on push when the SGArray carries a sampled request's tag; pops pick the
// context up from the delivered SGA at redeem instead.
func (o *Op) Trace(ctx uint64) { o.trace = ctx }

// Token returns the operation's qtoken.
func (o *Op) Token() QToken { return o.qt }

// Done reports whether the operation completed.
func (o *Op) Done() bool { return o.done }

// Complete finishes the operation with ev. Completing twice panics: an
// I/O stack delivering two results for one token is a bug. So is completing
// an operation the table no longer holds — one whose libcall was refused and
// withdrawn — and it panics the same way, before it can mark as done
// whichever operation has the slot now.
func (o *Op) Complete(ev QEvent) {
	if o.done {
		panic("pdpix: operation completed twice")
	}
	t := o.tbl
	s := &t.slots[o.qt&tokenIdxMask-1]
	if s.op != o {
		panic("pdpix: operation completed after it left the token table")
	}
	o.done, s.done = true, true
	o.ev = ev
	t.log[t.completions%completionLog] = o.qt
	t.completions++
	if t.clock != nil {
		o.completedAt = t.clock.Now()
		if t.lat != nil {
			t.lat.Observe(int64(o.completedAt - o.issuedAt))
		}
	}
}

// Fail finishes the operation with an error event.
func (o *Op) Fail(qd QDesc, opc OpCode, err error) {
	o.Complete(QEvent{QD: qd, Op: opc, Err: err})
}

// TokenTable issues qtokens and tracks outstanding operations. Demikernel
// datapaths are single-threaded, so the table needs no locking.
//
// A table can be instrumented (Instrument, SetLatencyHist, SetRecorder) to
// stamp every operation's lifecycle against a virtual clock: issue at New,
// complete inside Complete, redeem at TryTake. Uninstrumented tables pay
// one nil check per stage.
//
// The table is an array of slots and a LIFO free list threaded through the
// free ones, so redeeming, refusing or probing a token is a bounds check and
// a compare where a map hashed. The array grows by one slot when an
// operation is issued with none free — more tokens outstanding than ever
// before — and never shrinks: 24 bytes for each token of the high-water mark.
type TokenTable struct {
	slots []tokenSlot
	free  uint32 // index + 1 of the most recently freed slot, 0 for none
	// issued numbers operations in issue order; Withdraw hands the newest
	// number back.
	issued uint64
	// completions counts Op.Complete calls (Fail included). An
	// outstanding token's fate can only change through one, so a wait loop
	// that found nothing ready need not look again until this moves.
	completions uint64

	clock  sim.Clock
	coreID int32
	lat    *telemetry.Histogram
	rec    *telemetry.FlightRecorder
	dt     *dtrace.Hop
	// forgeries counts cross-tenant redemption attempts rejected by
	// TryTakeAs; the optional hook lets harnesses attribute them per tenant.
	forgeries uint64
	onForgery func(issuer, redeemer uint32)
	// log holds the tokens of the last completionLog completions: that of
	// completion c (counting from 0) at log[c%completionLog]. A waiter
	// that verified its set at count k learns from it which of its tokens
	// can have changed since, while completions-k <= completionLog.
	log [completionLog]QToken
}

// completionLog is the length of TokenTable.log.
const completionLog = 16

// NewTokenTable returns an empty table.
func NewTokenTable() *TokenTable { return &TokenTable{} }

// Instrument attaches a virtual clock (and the issuing core's id, for span
// labels) so operations are lifecycle-stamped. Calling it again updates the
// labels — multicore groups re-instrument each core's table with its index.
func (t *TokenTable) Instrument(clock sim.Clock, core int) {
	t.clock = clock
	t.coreID = int32(core)
}

// SetLatencyHist records every operation's issue→complete latency into h.
func (t *TokenTable) SetLatencyHist(h *telemetry.Histogram) { t.lat = h }

// SetRecorder emits a flight-recorder span for every redeemed operation.
func (t *TokenTable) SetRecorder(r *telemetry.FlightRecorder) { t.rec = r }

// SetDTrace emits a distributed-trace op span for every redeemed operation
// that carries a trace context (stamped via Op.Trace, or riding the popped
// SGArray). A nil hop keeps the table untraced.
func (t *TokenTable) SetDTrace(h *dtrace.Hop) { t.dt = h }

// SetForgeryHook installs a callback invoked on every cross-tenant
// redemption attempt rejected by TryTakeAs, with the op's issuing tenant
// and the principal that tried to redeem it.
func (t *TokenTable) SetForgeryHook(fn func(issuer, redeemer uint32)) { t.onForgery = fn }

// Forgeries returns the number of cross-tenant redemption attempts the
// table has rejected.
func (t *TokenTable) Forgeries() uint64 { return t.forgeries }

// Completions returns how many of the table's operations have completed,
// redeemed or not. It never decreases.
func (t *TokenTable) Completions() uint64 { return t.completions }

// Issued returns the newest operation's issue number: how many operations
// the table has minted, less the refused calls Withdraw took back.
func (t *TokenTable) Issued() uint64 { return t.issued }

// New allocates a fresh operation of the host tenant 0 (NewFor).
func (t *TokenTable) New() *Op { return t.NewFor(0) }

// NewFor allocates a fresh operation and its qtoken, issued to tenant: the
// most recently freed slot at its current generation, or a new slot when
// none is free. A fresh table therefore mints 1, 2, 3, … until its first
// reuse.
func (t *TokenTable) NewFor(tenant uint32) *Op {
	i := t.acquire()
	s := &t.slots[i-1]
	t.issued++
	op := &Op{qt: s.qt | QToken(i), seq: t.issued, tbl: t}
	if t.clock != nil {
		op.issuedAt = t.clock.Now()
	}
	s.qt, s.op, s.tenant = op.qt, op, tenant
	return op
}

// acquire takes the slot on top of the free list, or grows the table by one
// when none is free, and returns its index + 1.
func (t *TokenTable) acquire() uint32 {
	if i := t.free; i != 0 {
		t.free = t.slots[i-1].tenant
		return i
	}
	if len(t.slots) == tokenIdxMask {
		panic("pdpix: 2^24 qtokens outstanding")
	}
	t.slots = append(t.slots, tokenSlot{})
	return uint32(len(t.slots))
}

// release puts a live slot on top of the free list at generation gen.
func (t *TokenTable) release(s *tokenSlot, gen QToken) {
	i := uint32(s.qt & tokenIdxMask)
	*s = tokenSlot{qt: gen << tokenIdxBits, tenant: t.free}
	t.free = i
}

// Withdraw unmints op: the libcall that minted it was refused at the call
// site, so the operation never happened. Its slot goes back on top of the
// free list at the generation it had — nobody was handed the token — and,
// being the newest, it hands its issue number back: a failed call is
// invisible to later numbering, and the next New mints the very same token.
func (t *TokenTable) Withdraw(op *Op) {
	s := &t.slots[op.qt&tokenIdxMask-1]
	if s.op != op {
		panic("pdpix: withdrew an operation the token table does not hold")
	}
	t.release(s, op.qt>>tokenIdxBits)
	if t.issued == op.seq {
		t.issued--
	}
}

// slot resolves qt to its live slot, or nil: a bounds check (InvalidQToken's
// zero index wraps past any length) and one compare, without a hash and
// without reading anything but the slot — not the Op, and nothing of whoever
// holds the slot now when qt is stale or guessed.
func (t *TokenTable) slot(qt QToken) *tokenSlot {
	i := uint64(qt&tokenIdxMask) - 1
	if i >= uint64(len(t.slots)) {
		return nil
	}
	if s := &t.slots[i]; s.qt == qt {
		return s
	}
	return nil
}

// probe returns the index of the first token of qts, in rotation order
// from rr (qts[rr%n:], then qts[:rr%n]), that is not a live, outstanding
// token of tenant — the one a redemption would take or fail — or -1 when
// there is none. It reads the slot alone: a bounds check and three compares
// a token, with no event built and no Op touched (DESIGN.md §3, "The wait
// loop").
func (t *TokenTable) probe(qts []QToken, rr int, tenant uint32) int {
	if len(qts) == 0 {
		return -1
	}
	start := rr % len(qts)
	if i := t.settled(qts[start:], tenant); i >= 0 {
		return start + i
	}
	return t.settled(qts[:start], tenant)
}

// settled is probe over qts in order.
func (t *TokenTable) settled(qts []QToken, tenant uint32) int {
	for i, qt := range qts {
		if !t.outstanding(qt, tenant) {
			return i
		}
	}
	return -1
}

// outstanding reports whether qt is a live, outstanding token of tenant:
// the one slot read a probe makes per token.
func (t *TokenTable) outstanding(qt QToken, tenant uint32) bool {
	j := uint64(qt&tokenIdxMask) - 1 // InvalidQToken wraps past any length
	if j >= uint64(len(t.slots)) {
		return false
	}
	s := &t.slots[j]
	return s.qt == qt && s.tenant == tenant && !s.done
}

// Lookup returns the operation for qt, if outstanding.
func (t *TokenTable) Lookup(qt QToken) (*Op, bool) {
	if s := t.slot(qt); s != nil {
		return s.op, true
	}
	return nil, false
}

// TryTake redeems qt if its operation has completed, removing it from the
// table. ok reports completion; a false ok with a nil error means the
// operation is still outstanding. TryTake does not check the principal —
// it is the trusted-driver path (demi.Combined, bench drivers); tenant
// code goes through TryTakeAs.
func (t *TokenTable) TryTake(qt QToken) (QEvent, bool, error) {
	s := t.slot(qt)
	if s == nil {
		return QEvent{}, false, ErrBadQToken
	}
	return t.take(s)
}

// TryTakeAs redeems qt on behalf of tenant principal tid. A token minted
// for a different tenant is rejected with ErrBadQToken *without consuming
// the operation*: qtokens are capabilities, and a forged or guessed token
// must never let one tenant steal or cancel another's completion. The
// rejection is indistinguishable from an unknown token, so probing leaks
// nothing about the victim's outstanding ops.
func (t *TokenTable) TryTakeAs(qt QToken, tid uint32) (QEvent, bool, error) {
	s := t.slot(qt)
	if s == nil {
		return QEvent{}, false, ErrBadQToken
	}
	if s.tenant != tid {
		t.forgeries++
		if t.onForgery != nil {
			t.onForgery(s.tenant, tid)
		}
		return QEvent{}, false, ErrBadQToken
	}
	return t.take(s)
}

// take finishes a redemption whose principal check already passed. A slot
// that is not done answers from the slot alone; a done one is freed at its
// next generation, so the token just redeemed is already stale.
func (t *TokenTable) take(s *tokenSlot) (QEvent, bool, error) {
	if !s.done {
		return QEvent{}, false, nil
	}
	op := s.op
	t.release(s, (op.qt>>tokenIdxBits+1)&tokenGenMask)
	if t.rec != nil && t.clock != nil {
		t.rec.Record(telemetry.Span{
			Token:     op.seq,
			Core:      t.coreID,
			Op:        uint8(op.ev.Op),
			QD:        int32(op.ev.QD),
			Issued:    int64(op.issuedAt),
			Completed: int64(op.completedAt),
			Redeemed:  int64(t.clock.Now()),
		})
	}
	if t.dt != nil && t.clock != nil {
		ctx := op.trace
		if ctx == 0 {
			ctx = op.ev.SGA.TraceCtx() // pops learn the context from the delivered data
		}
		t.dt.OpSpan(ctx, op.seq, uint8(op.ev.Op), int32(op.ev.QD),
			int64(op.issuedAt), int64(op.completedAt), int64(t.clock.Now()))
	}
	return op.ev, true, nil
}

// Outstanding returns the number of incomplete operations.
func (t *TokenTable) Outstanding() int {
	n := 0
	for i := range t.slots {
		if s := &t.slots[i]; s.op != nil && !s.done {
			n++
		}
	}
	return n
}

// Unredeemed returns the number of operations the table still holds:
// those outstanding and those completed whose token nobody has redeemed.
func (t *TokenTable) Unredeemed() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].op != nil {
			n++
		}
	}
	return n
}
