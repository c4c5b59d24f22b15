package core

import (
	"demikernel/internal/dtrace"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Op is one outstanding operation's state in the token table. Library OSes
// create an Op when a libcall is issued and complete it from their I/O
// stacks; the wait machinery redeems it.
type Op struct {
	qt          QToken
	done        bool
	ev          QEvent
	tbl         *TokenTable // owning table, for lifecycle timestamps
	issuedAt    sim.Time
	completedAt sim.Time
	trace       uint64 // distributed-trace context stamped by the libOS at issue
	tenant      uint32 // issuing tenant principal (0 = the host/infra tenant)
}

// Tenant returns the principal the operation was minted for.
func (o *Op) Tenant() uint32 { return o.tenant }

// Trace stamps the operation with a distributed-trace context. LibOSes call
// it on push when the SGArray carries a sampled request's tag; pops pick the
// context up from the delivered SGA at redeem instead.
//
//demi:nonalloc
func (o *Op) Trace(ctx uint64) { o.trace = ctx }

// Token returns the operation's qtoken.
func (o *Op) Token() QToken { return o.qt }

// Done reports whether the operation completed.
func (o *Op) Done() bool { return o.done }

// Complete finishes the operation with ev. Completing twice panics: an
// I/O stack delivering two results for one token is a bug.
//
//demi:nonalloc every push, pop and accept that finishes does so here
func (o *Op) Complete(ev QEvent) {
	if o.done {
		panic("pdpix: operation completed twice")
	}
	o.done = true
	o.ev = ev
	t := o.tbl
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
type TokenTable struct {
	next QToken
	ops  map[QToken]*Op
	// completions counts Op.Complete calls (Fail and Cancel included). An
	// outstanding token's fate can only change through one, so a wait loop
	// that found nothing ready need not look again until this moves.
	completions uint64

	clock  sim.Clock
	coreID int32
	lat    *telemetry.Histogram
	rec    *telemetry.FlightRecorder
	dt     *dtrace.Hop
	// issuer is the tenant principal stamped on ops minted while it is set
	// (SetIssuer brackets each tenant's libcalls). forgeries
	// counts cross-tenant redemption attempts rejected by TryTakeAs; the
	// optional hook lets harnesses attribute them per tenant.
	issuer    uint32
	forgeries uint64
	onForgery func(issuer, redeemer uint32)
}

// NewTokenTable returns an empty table.
func NewTokenTable() *TokenTable {
	return &TokenTable{ops: make(map[QToken]*Op)}
}

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

// SetIssuer sets the tenant principal stamped on subsequently minted ops.
// tenant.View brackets each tenant's libcalls with SetIssuer(id) /
// SetIssuer(0); ops minted outside any bracket belong to the host tenant 0.
// This is the one tenant bracket: stacks that tag in-stack state (sockets,
// connections, rx allocations) read Issuer when they build a socket.
func (t *TokenTable) SetIssuer(tenant uint32) { t.issuer = tenant }

// Issuer returns the currently stamped tenant principal.
func (t *TokenTable) Issuer() uint32 { return t.issuer }

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

// New allocates a fresh operation and its qtoken.
func (t *TokenTable) New() *Op {
	t.next++
	op := &Op{qt: t.next, tbl: t, tenant: t.issuer}
	if t.clock != nil {
		op.issuedAt = t.clock.Now()
	}
	t.ops[op.qt] = op
	return op
}

// Withdraw unmints op: the libcall that minted it was refused at the call
// site, so the operation never happened. The token leaves the table and,
// being the newest, hands its number back — a failed call is invisible to
// later numbering.
func (t *TokenTable) Withdraw(op *Op) {
	delete(t.ops, op.qt)
	if t.next == op.qt {
		t.next--
	}
}

// Lookup returns the operation for qt, if outstanding.
func (t *TokenTable) Lookup(qt QToken) (*Op, bool) {
	op, ok := t.ops[qt]
	return op, ok
}

// TryTake redeems qt if its operation has completed, removing it from the
// table. ok reports completion; a false ok with a nil error means the
// operation is still outstanding. TryTake does not check the principal —
// it is the trusted-driver path (demi.Combined, bench drivers); tenant
// code goes through TryTakeAs.
func (t *TokenTable) TryTake(qt QToken) (QEvent, bool, error) {
	op, exists := t.ops[qt]
	if !exists {
		return QEvent{}, false, ErrBadQToken
	}
	return t.take(qt, op)
}

// TryTakeAs redeems qt on behalf of tenant principal tid. A token minted
// for a different tenant is rejected with ErrBadQToken *without consuming
// the operation*: qtokens are capabilities, and a forged or guessed token
// must never let one tenant steal or cancel another's completion. The
// rejection is indistinguishable from an unknown token, so probing leaks
// nothing about the victim's outstanding ops.
func (t *TokenTable) TryTakeAs(qt QToken, tid uint32) (QEvent, bool, error) {
	op, exists := t.ops[qt]
	if !exists {
		return QEvent{}, false, ErrBadQToken
	}
	if op.tenant != tid {
		t.forgeries++
		if t.onForgery != nil {
			t.onForgery(op.tenant, tid)
		}
		return QEvent{}, false, ErrBadQToken
	}
	return t.take(qt, op)
}

// take finishes a redemption whose principal check already passed.
func (t *TokenTable) take(qt QToken, op *Op) (QEvent, bool, error) {
	if !op.done {
		return QEvent{}, false, nil
	}
	delete(t.ops, qt)
	if t.rec != nil && t.clock != nil {
		t.rec.Record(telemetry.Span{
			Token:     uint64(qt),
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
		t.dt.OpSpan(ctx, uint64(qt), uint8(op.ev.Op), int32(op.ev.QD),
			int64(op.issuedAt), int64(op.completedAt), int64(t.clock.Now()))
	}
	return op.ev, true, nil
}

// Cancel fails an outstanding operation with ErrQueueClosed, so a waiter
// redeems an error instead of hanging. No queue calls it: each closing
// queue fails its own parked ops through Op.Fail, which needs no lookup;
// this is the by-token form of the same thing.
func (t *TokenTable) Cancel(qt QToken, qd QDesc, opc OpCode) {
	if op, ok := t.ops[qt]; ok && !op.done {
		op.Fail(qd, opc, ErrQueueClosed)
	}
}

// Outstanding returns the number of incomplete operations.
func (t *TokenTable) Outstanding() int {
	n := 0
	for _, op := range t.ops {
		if !op.done {
			n++
		}
	}
	return n
}
