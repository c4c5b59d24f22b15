package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span operation codes. Values mirror core.OpCode's ordinals so library
// OSes convert with a plain cast (telemetry cannot import core: core
// imports telemetry).
const (
	OpInvalid uint8 = iota
	OpPush
	OpPop
	OpAccept
	OpConnect
)

var opNames = [...]string{"invalid", "push", "pop", "accept", "connect"}

// OpName returns the operation mnemonic for a span's Op byte.
func OpName(op uint8) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "op?"
}

// A Span is one qtoken's lifecycle: the libcall issued it, the I/O stack
// completed it, and a wait call redeemed it. Stage order matches Figure 5's
// in-OS decomposition of a request: issue (libcall entry) → complete (time
// in the OS and on the wire) → redeem (scheduler/wait handoff back to the
// application). Timestamps are virtual-time nanoseconds.
type Span struct {
	Token     uint64 // the qtoken
	Core      int32  // virtual CPU that issued the operation
	Op        uint8  // OpPush, OpPop, ... (core.OpCode ordinal)
	QD        int32  // queue descriptor the operation ran on
	Issued    int64  // libcall entry (push/pop/accept/connect)
	Completed int64  // I/O stack delivered the result
	Redeemed  int64  // wait returned the event to the application
}

// InOS is the issue→complete stage: time inside the datapath OS (and, for
// network pops, on the wire).
func (s Span) InOS() int64 { return s.Completed - s.Issued }

// RedeemDelay is the complete→redeem stage: time until the wait loop
// handed the completion back.
func (s Span) RedeemDelay() int64 { return s.Redeemed - s.Completed }

// Total is the full issue→redeem latency.
func (s Span) Total() int64 { return s.Redeemed - s.Issued }

// A FlightRecorder keeps the last capacity qtoken spans in a ring plus the
// k slowest spans seen over the whole run. Record is allocation-free; all
// state is fixed-capacity. It is single-threaded like the datapath that
// feeds it (simulated cores share one safely: the engine runs one core at
// a time).
type FlightRecorder struct {
	ring    []Span
	next    int
	wrapped bool
	total   uint64
	slow    []Span // unordered top-k by Total; ties keep the earlier span
}

// NewFlightRecorder returns a recorder holding the last capacity spans and
// the k slowest.
func NewFlightRecorder(capacity, k int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	if k < 1 {
		k = 1
	}
	return &FlightRecorder{ring: make([]Span, capacity), slow: make([]Span, 0, k)}
}

// Record adds one completed span. Zero allocations: the ring and top-k
// table are preallocated.
func (f *FlightRecorder) Record(s Span) {
	f.total++
	f.ring[f.next] = s
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrapped = true
	}
	if len(f.slow) < cap(f.slow) {
		f.slow = append(f.slow, s)
		return
	}
	mi := 0
	for i := 1; i < len(f.slow); i++ {
		if f.slow[i].Total() < f.slow[mi].Total() {
			mi = i
		}
	}
	if s.Total() > f.slow[mi].Total() {
		f.slow[mi] = s
	}
}

// Total returns the number of spans ever recorded (recent spans beyond the
// ring capacity are evicted but still counted).
func (f *FlightRecorder) Total() uint64 { return f.total }

// Spans returns the retained recent spans in recording order.
func (f *FlightRecorder) Spans() []Span {
	if !f.wrapped {
		return append([]Span(nil), f.ring[:f.next]...)
	}
	out := make([]Span, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}

// Slowest returns the k slowest spans, most expensive first (ties broken
// by token for determinism).
func (f *FlightRecorder) Slowest() []Span {
	out := append([]Span(nil), f.slow...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Token < out[j].Token
	})
	return out
}

// micros renders nanoseconds as microseconds with three decimals.
func micros(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e3) }

// WriteDump renders the recorder as text: a per-op stage breakdown over
// the retained spans, then the slowest spans with their per-stage split.
// The output is deterministic for deterministic inputs.
func (f *FlightRecorder) WriteDump(w io.Writer) {
	spans := f.Spans()
	fmt.Fprintf(w, "flight recorder: %d spans recorded, %d retained, %d slowest tracked\n",
		f.total, len(spans), len(f.slow))
	fmt.Fprintf(w, "stage order (Fig 5 in-OS decomposition): issue(libcall) -> complete(I/O stack) -> redeem(wait/sched)\n")

	// Aggregate per-stage latency by op over the retained spans.
	var inOS, redeem, total [len(opNames)]Histogram
	for _, s := range spans {
		op := s.Op
		if int(op) >= len(opNames) {
			op = OpInvalid
		}
		inOS[op].Observe(s.InOS())
		redeem[op].Observe(s.RedeemDelay())
		total[op].Observe(s.Total())
	}
	fmt.Fprintf(w, "  %-8s %8s  %22s  %22s  %12s\n",
		"op", "spans", "in-os p50/p99 (us)", "redeem p50/p99 (us)", "total p99")
	for op := range opNames {
		if total[op].Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s %8d  %10s/%-11s  %10s/%-11s  %12s\n",
			opNames[op], total[op].Count(),
			micros(inOS[op].Quantile(0.50)), micros(inOS[op].Quantile(0.99)),
			micros(redeem[op].Quantile(0.50)), micros(redeem[op].Quantile(0.99)),
			micros(total[op].Quantile(0.99)))
	}

	slow := f.Slowest()
	if len(slow) == 0 {
		return
	}
	fmt.Fprintf(w, "slowest spans:\n")
	fmt.Fprintf(w, "  %4s %8s %4s %-8s %4s %14s %12s %12s %12s\n",
		"rank", "token", "core", "op", "qd", "issued (us)", "in-os (us)", "redeem (us)", "total (us)")
	for i, s := range slow {
		fmt.Fprintf(w, "  %4d %8d %4d %-8s %4d %14s %12s %12s %12s\n",
			i+1, s.Token, s.Core, OpName(s.Op), s.QD,
			micros(s.Issued), micros(s.InOS()), micros(s.RedeemDelay()), micros(s.Total()))
	}
}

// jsonSpan is one span in the machine-readable dump: identity, raw
// timestamps, and the derived per-stage split (all nanoseconds).
type jsonSpan struct {
	Token     uint64 `json:"token"`
	Core      int32  `json:"core"`
	Op        string `json:"op"`
	QD        int32  `json:"qd"`
	Issued    int64  `json:"issued_ns"`
	Completed int64  `json:"completed_ns"`
	Redeemed  int64  `json:"redeemed_ns"`
	InOS      int64  `json:"in_os_ns"`
	Redeem    int64  `json:"redeem_ns"`
	Total     int64  `json:"total_ns"`
}

func toJSONSpan(s Span) jsonSpan {
	return jsonSpan{
		Token: s.Token, Core: s.Core, Op: OpName(s.Op), QD: s.QD,
		Issued: s.Issued, Completed: s.Completed, Redeemed: s.Redeemed,
		InOS: s.InOS(), Redeem: s.RedeemDelay(), Total: s.Total(),
	}
}

// jsonFlight mirrors WriteDump's content as JSON.
type jsonFlight struct {
	Total    uint64     `json:"total_spans"`
	Retained int        `json:"retained"`
	Recent   []jsonSpan `json:"recent"`
	Slowest  []jsonSpan `json:"slowest"`
}

// WriteDumpJSON renders the recorder as JSON: the retained recent spans in
// recording order plus the slowest table, each span with its per-stage
// split. Deterministic for deterministic inputs, like WriteDump.
func (f *FlightRecorder) WriteDumpJSON(w io.Writer) error {
	spans := f.Spans()
	slow := f.Slowest()
	out := jsonFlight{
		Total:    f.total,
		Retained: len(spans),
		Recent:   make([]jsonSpan, 0, len(spans)),
		Slowest:  make([]jsonSpan, 0, len(slow)),
	}
	for _, s := range spans {
		out.Recent = append(out.Recent, toJSONSpan(s))
	}
	for _, s := range slow {
		out.Slowest = append(out.Slowest, toJSONSpan(s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
