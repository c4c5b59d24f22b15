// Package dtrace is the end-to-end distributed tracer: it assigns each
// sampled request a trace ID at the client, propagates the context causally
// across every hop — riding memory.Buf tags through catmem's zero-copy
// handoff, and a tiny wire trailer appended past the IPv4 payload through
// catnip/catloop frames — and collects per-hop events (qtoken op spans,
// wire tx/rx, ring push/pop, app stages, fault firings) into one fixed-size
// arena. Export-time code stitches the events into per-request waterfalls
// with critical-path accounting (stitch.go) and serializes them as a
// deterministic binary or Chrome trace_event JSON (export.go).
//
// The record path allocates nothing (TestRecordPathAllocs) and costs one
// nil check plus one compare when tracing is off: every Hop method returns
// immediately for a nil receiver or a zero context, so an unsampled request
// records nothing.
// All timestamps are virtual-time nanoseconds passed in by the caller —
// the package never consults a clock, keeping same-seed runs byte-identical.
package dtrace

import "demikernel/internal/telemetry"

// Event kinds.
const (
	KRoot     uint8 = iota + 1 // one sampled request: T0=start, T1=end
	KOp                        // qtoken lifecycle: T0=issued, T1=completed, T2=redeemed
	KWireTx                    // frame left the stack at T0
	KWireRx                    // frame entered the stack at T0
	KRingPush                  // SGArray entered a shared-memory ring at T0
	KRingPop                   // SGArray left a shared-memory ring at T0
	KApp                       // application stage: T0..T1, Op = stage label id
	KFault                     // fault fired at T0, Op = site label id; Trace may be 0
	KSwitch                    // frame traversed a switch at T0, QD = chosen egress server
)

// kindNames renders event kinds for exports.
var kindNames = [...]string{"", "root", "op", "wire_tx", "wire_rx", "ring_push", "ring_pop", "app", "fault", "switch"}

// KindName returns the mnemonic for an event kind byte.
func KindName(k uint8) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// An Event is one recorded trace observation. Fixed-size so the arena ring
// is allocation-free; meaning of T0/T1/T2 depends on Kind (see the kind
// constants). Label is a hop-registered name id for KApp stages and KFault
// sites, the core.OpCode ordinal for KOp, and unused otherwise.
type Event struct {
	Trace uint64
	Token uint64
	T0    int64
	T1    int64
	T2    int64
	QD    int32
	Kind  uint8
	Hop   uint8
	Label uint8
}

// A Root is one finished sampled request: identity plus its measured
// interval, retained for querying (recent ring + top-k slowest table).
type Root struct {
	Trace      uint64
	Start, End int64
}

// Dur returns the request's end-to-end duration in nanoseconds.
func (r Root) Dur() int64 { return r.End - r.Start }

// Config sizes a Tracer.
type Config struct {
	// SampleEvery samples every Nth request at the root (head-based).
	// 1 traces everything; 0 disables tracing entirely.
	SampleEvery uint64
	// Events is the event-arena capacity; the arena is a ring, so beyond
	// it the oldest events are overwritten (and counted as evicted).
	Events int
	// Recent is how many finished request roots the recent ring keeps.
	Recent int
	// Slowest is the k of the always-capture-slowest root table.
	Slowest int
}

// DefaultConfig traces every 64th request with room for a few thousand
// sampled requests' events.
func DefaultConfig() Config {
	return Config{SampleEvery: 64, Events: 1 << 16, Recent: 1024, Slowest: 16}
}

// A Tracer owns the sampling decision, the trace-ID sequence, the event
// arena, and the finished-request retention. It is single-threaded like the
// simulated datapaths that feed it (the engine's baton discipline runs one
// node at a time, so all hops of one world share a Tracer safely).
type Tracer struct {
	sampleEvery uint64
	reqSeq      uint64 // requests seen at the root (sampled or not)
	lastID      uint64 // last issued trace ID
	started     uint64 // sampled requests started

	events telemetry.Ring[Event] // the arena; its evictions are exported

	names []string // hop/stage/site registry; index is the id

	recent telemetry.Ring[Root] // finished roots; its total is Finished
	slow   telemetry.TopK[Root] // by Dur
}

// New returns a tracer for cfg. Zero-valued fields get usable minimums.
func New(cfg Config) *Tracer {
	return &Tracer{
		sampleEvery: cfg.SampleEvery,
		events:      telemetry.NewRing[Event](cfg.Events),
		names:       make([]string, 1, 32), // id 0 = unnamed
		recent:      telemetry.NewRing[Root](cfg.Recent),
		slow:        telemetry.NewTopK[Root](cfg.Slowest),
	}
}

// Enabled reports whether the tracer can sample at all. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.sampleEvery != 0 }

// Hop registers a named hop (one libOS instance or app stage location) and
// returns its recording handle. Setup-time only; allocation is fine here.
// A nil tracer returns a nil hop, whose record methods are all no-ops.
func (t *Tracer) Hop(name string) *Hop {
	if t == nil {
		return nil
	}
	return &Hop{t: t, id: t.intern(name)}
}

// intern registers a name and returns its id. Ids are bytes; the registry
// is tiny (hops, app stages, fault sites).
func (t *Tracer) intern(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	if len(t.names) >= 256 {
		return 0
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

// Name returns the registered name for a hop/stage/site id.
func (t *Tracer) Name(id uint8) string {
	if t == nil || int(id) >= len(t.names) || t.names[id] == "" {
		return "?"
	}
	return t.names[id]
}

// StartRequest makes the head-based sampling decision for one request and
// returns its trace context: a fresh nonzero trace ID when sampled, 0
// otherwise. Deterministic: every Nth request by arrival order is sampled
// and IDs are sequential.
func (t *Tracer) StartRequest() uint64 {
	if t == nil || t.sampleEvery == 0 {
		return 0
	}
	seq := t.reqSeq
	t.reqSeq++
	if seq%t.sampleEvery != 0 {
		return 0
	}
	t.lastID++
	t.started++
	return t.lastID
}

// Started and Finished report sampled-request counts; Evicted reports
// events lost to arena wraparound (exports surface it so a truncated
// waterfall is never silently read as complete).
func (t *Tracer) Started() uint64  { return t.started }
func (t *Tracer) Finished() uint64 { return t.recent.Total() }
func (t *Tracer) Evicted() uint64  { return t.events.Evicted() }

// record appends one event to the arena ring.
func (t *Tracer) record(trace, token uint64, kind, hop, label uint8, qd int32, t0, t1, t2 int64) {
	t.events.Put(Event{Trace: trace, Token: token, T0: t0, T1: t1, T2: t2, QD: qd, Kind: kind, Hop: hop, Label: label})
}

// retain files a finished root into the recent ring and the top-k slowest
// table.
func (t *Tracer) retain(r Root) {
	t.recent.Put(r)
	t.slow.Put(r, r.Dur())
}

// FaultAt records an un-attributed fault firing (a device or transport
// site with no request context at hand). Stitching attaches it to every
// trace whose root interval contains the instant.
func (t *Tracer) FaultAt(site uint8, at int64) {
	if t == nil || t.sampleEvery == 0 {
		return
	}
	t.record(0, 0, KFault, 0, site, 0, at, at, 0)
}

// Events returns the retained events in recording order (export time).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events.Items()
}

// Recent returns the retained finished roots in finish order.
func (t *Tracer) Recent() []Root {
	if t == nil {
		return nil
	}
	return t.recent.Items()
}

// Slowest returns up to n of the slowest finished requests, slowest first
// (ties broken by trace ID for determinism).
func (t *Tracer) Slowest(n int) []Root {
	if t == nil {
		return nil
	}
	out := t.slow.Sorted(func(r Root) uint64 { return r.Trace })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// A Hop is one recording location's handle: a libOS instance (op spans,
// wire and ring events) or an app stage site. All record methods are
// nil-receiver-safe and return immediately for a zero context, which is
// what makes tracing free when sampling is off.
type Hop struct {
	t  *Tracer
	id uint8
}

// Label registers a stage or fault-site name under this hop's tracer and
// returns its id (setup time; allocation is fine). Nil-safe.
func (h *Hop) Label(name string) uint8 {
	if h == nil {
		return 0
	}
	return h.t.intern(name)
}

// Tracer returns the owning tracer (nil for a nil hop).
func (h *Hop) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.t
}

// OpSpan records one redeemed qtoken's lifecycle against the trace:
// issued → completed (in-OS, the datapath + wire/ring time) → redeemed
// (the wait/sched handoff back to the application). Same stage semantics
// as the telemetry flight recorder.
func (h *Hop) OpSpan(ctx, token uint64, op uint8, qd int32, issued, completed, redeemed int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, token, KOp, h.id, op, qd, issued, completed, redeemed)
}

// WireTx records a traced frame leaving this hop's stack at the instant.
func (h *Hop) WireTx(ctx uint64, at int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KWireTx, h.id, 0, 0, at, at, 0)
}

// WireRx records a traced frame entering this hop's stack at the instant.
func (h *Hop) WireRx(ctx uint64, at int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KWireRx, h.id, 0, 0, at, at, 0)
}

// RingPush records a traced SGArray entering a shared-memory ring.
func (h *Hop) RingPush(ctx uint64, at int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KRingPush, h.id, 0, 0, at, at, 0)
}

// RingPop records a traced SGArray leaving a shared-memory ring.
func (h *Hop) RingPop(ctx uint64, at int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KRingPop, h.id, 0, 0, at, at, 0)
}

// Switch records a traced frame traversing a switch (the ToR hop) at the
// instant, with the egress server index the switch chose in QD — the
// placement decision lands in the waterfall, so a request's tail can be
// read back to "the ToR steered it to a loaded server".
func (h *Hop) Switch(ctx uint64, at int64, server int32) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KSwitch, h.id, 0, server, at, at, 0)
}

// AppSpan records one application stage interval (label from Label).
func (h *Hop) AppSpan(ctx uint64, stage uint8, from, to int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KApp, h.id, stage, 0, from, to, 0)
}

// Fault records a fault firing inside the traced request (site from Label).
func (h *Hop) Fault(ctx uint64, site uint8, at int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KFault, h.id, site, 0, at, at, 0)
}

// EndRequest finishes a sampled request: records its root event on this
// hop and files it into the retention tables.
func (h *Hop) EndRequest(ctx uint64, start, end int64) {
	if h == nil || ctx == 0 {
		return
	}
	h.t.record(ctx, 0, KRoot, h.id, 0, 0, start, end, 0)
	h.t.retain(Root{Trace: ctx, Start: start, End: end})
}
