package dtrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestSampling: head-based sampling traces every Nth request with
// sequential IDs, and 0 disables tracing entirely.
func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	var ids []uint64
	for i := 0; i < 10; i++ {
		if id := tr.StartRequest(); id != 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("sampled ids = %v, want [1 2 3] (requests 0, 4, 8)", ids)
	}
	off := New(Config{SampleEvery: 0})
	if off.Enabled() {
		t.Fatal("SampleEvery 0 must disable the tracer")
	}
	if id := off.StartRequest(); id != 0 {
		t.Fatalf("disabled tracer sampled id %d", id)
	}
}

// TestNilSafety: a nil tracer and nil hop are inert on every path the
// datapath calls.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.StartRequest() != 0 || tr.Hop("x") != nil {
		t.Fatal("nil tracer must be inert")
	}
	var h *Hop
	h.OpSpan(1, 1, 1, 1, 0, 1, 2)
	h.WireTx(1, 0)
	h.AppSpan(1, 0, 0, 1)
	h.EndRequest(1, 0, 1)
	if h.Tracer() != nil || h.Label("x") != 0 {
		t.Fatal("nil hop must be inert")
	}
}

// TestArenaWraparound: the event ring keeps the newest events, counts
// evictions, and Events() returns recording order after the wrap.
func TestArenaWraparound(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 4, Recent: 4, Slowest: 1})
	h := tr.Hop("h")
	for i := int64(1); i <= 6; i++ {
		h.WireTx(uint64(i), i*10)
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if evs[i].Trace != want {
			t.Errorf("events[%d].Trace = %d, want %d", i, evs[i].Trace, want)
		}
	}
}

// TestSlowestRetention: the top-k table keeps the slowest roots, ties keep
// the earlier request, and Slowest orders deterministically.
func TestSlowestRetention(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 64, Recent: 2, Slowest: 2})
	h := tr.Hop("h")
	h.EndRequest(1, 0, 300)
	h.EndRequest(2, 0, 100)
	h.EndRequest(3, 0, 100) // ties the min: dropped
	h.EndRequest(4, 0, 101) // strictly slower: evicts trace 2
	slow := tr.Slowest(0)
	if len(slow) != 2 || slow[0].Trace != 1 || slow[1].Trace != 4 {
		t.Fatalf("slowest = %+v, want traces [1 4]", slow)
	}
	// Recent ring holds the last 2 finishes in order.
	rec := tr.Recent()
	if len(rec) != 2 || rec[0].Trace != 3 || rec[1].Trace != 4 {
		t.Fatalf("recent = %+v, want traces [3 4]", rec)
	}
	if tr.Finished() != 4 {
		t.Fatalf("finished = %d, want 4", tr.Finished())
	}
}

// synthTrace records one two-hop request: client push -> wire -> server
// app+push -> wire -> client pop, rooted 0..100ns.
func synthTrace(tr *Tracer) uint64 {
	cl, sv := tr.Hop("client"), tr.Hop("server")
	serve := sv.Label("serve")
	ctx := tr.StartRequest()
	cl.OpSpan(ctx, 1, 1 /*push*/, 1, 0, 5, 6)
	cl.WireTx(ctx, 5)
	sv.WireRx(ctx, 20)
	sv.OpSpan(ctx, 2, 2 /*pop*/, 1, 0, 20, 25)
	sv.AppSpan(ctx, serve, 25, 40)
	sv.OpSpan(ctx, 3, 1 /*push*/, 1, 40, 45, 46)
	sv.WireTx(ctx, 45)
	cl.WireRx(ctx, 60)
	cl.OpSpan(ctx, 4, 2 /*pop*/, 1, 5, 60, 100)
	cl.EndRequest(ctx, 0, 100)
	return ctx
}

// TestStitchSynthetic: a hand-built trace assembles into a view whose
// critical path exactly tiles the root interval.
func TestStitchSynthetic(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 64, Recent: 8, Slowest: 4})
	ctx := synthTrace(tr)
	views := tr.Assemble()
	v := views[ctx]
	if v == nil {
		t.Fatalf("no view for trace %d (views: %d)", ctx, len(views))
	}
	if v.Root.Dur() != 100 {
		t.Fatalf("root dur = %d, want 100", v.Root.Dur())
	}
	if v.CritSum() != v.Root.Dur() {
		t.Fatalf("critical path sums to %d, root is %d", v.CritSum(), v.Root.Dur())
	}
	if v.Coverage != 1.0 {
		t.Fatalf("coverage = %v, want 1.0 (client pop spans the whole tail)", v.Coverage)
	}
	// Wire transits paired: client->server at 5..20 and server->client 45..60.
	wires := 0
	for _, r := range v.Rows {
		if r.Class == RowWire {
			wires++
			if r.Dur() != 15 {
				t.Errorf("wire transit %d..%d, want 15ns", r.From, r.To)
			}
		}
	}
	if wires != 2 {
		t.Fatalf("paired %d wire transits, want 2", wires)
	}
	hop, _, ns := v.GuiltyHop(tr)
	if ns <= 0 || hop == "" {
		t.Fatalf("GuiltyHop = %q %dns", hop, ns)
	}
}

// TestFaultAttachment: an unattributed fault (Trace 0) lands in every view
// whose root interval contains the instant; an attributed one lands only in
// its own trace.
func TestFaultAttachment(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 128, Recent: 8, Slowest: 4})
	h := tr.Hop("dev")
	site := h.Label("fault:dev.stall")
	a := tr.StartRequest()
	b := tr.StartRequest()
	tr.FaultAt(site, 50)    // global: inside both roots
	h.Fault(a, site, 60)    // attributed to a only
	tr.FaultAt(site, 5000)  // outside both roots: attached to neither
	h.EndRequest(a, 0, 100) // a spans 0..100
	h.EndRequest(b, 40, 90) // b spans 40..90
	views := tr.Assemble()
	if n := len(views[a].Faults); n != 2 {
		t.Fatalf("trace a has %d faults, want 2 (global@50 + own@60)", n)
	}
	if n := len(views[b].Faults); n != 1 {
		t.Fatalf("trace b has %d faults, want 1 (global@50)", n)
	}
}

// TestBinaryRoundTrip: encode -> decode preserves events, roots, names, and
// counters, and re-encoding the decoded tracer is byte-identical.
func TestBinaryRoundTrip(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 64, Recent: 8, Slowest: 4})
	synthTrace(tr)
	var a bytes.Buffer
	if err := tr.EncodeBinary(&a); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Events()) != len(tr.Events()) {
		t.Fatalf("decoded %d events, want %d", len(dec.Events()), len(tr.Events()))
	}
	for i, e := range tr.Events() {
		if dec.Events()[i] != e {
			t.Fatalf("event %d differs: %+v vs %+v", i, dec.Events()[i], e)
		}
	}
	if dec.Started() != tr.Started() || dec.Finished() != tr.Finished() {
		t.Fatalf("counters differ: %d/%d vs %d/%d",
			dec.Started(), dec.Finished(), tr.Started(), tr.Finished())
	}
	if dec.Name(1) != tr.Name(1) {
		t.Fatalf("name table differs: %q vs %q", dec.Name(1), tr.Name(1))
	}
	var b bytes.Buffer
	if err := dec.EncodeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-encoded decoded tracer differs from the original export")
	}
	// Decoded views stitch identically.
	if v := dec.Assemble(); len(v) != 1 {
		t.Fatalf("decoded tracer assembled %d views, want 1", len(v))
	}
}

// TestBinaryGolden: a trace the field-by-field codec of PR 17 wrote — a
// wrapped arena, four roots, a fault, negative and 2^40-sized fields —
// decodes and re-encodes to the same bytes: the record layout is unchanged.
func TestBinaryGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent_pr17.dtrc")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeBinary(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != 24 || tr.Evicted() != 10 || len(tr.Recent()) != 4 || len(tr.Slowest(0)) != 2 {
		t.Errorf("decoded %d events (%d evicted), %d recent, %d slowest; want 24 (10), 4, 2",
			len(tr.Events()), tr.Evicted(), len(tr.Recent()), len(tr.Slowest(0)))
	}
	if e := tr.Events()[20]; e.Token != 1<<40+7 || e.QD != -1 || e.T0 != -5 || e.T2 != 1<<41 || tr.Name(e.Hop) != "dev" {
		t.Errorf("event 20 decoded as %+v on hop %q", e, tr.Name(e.Hop))
	}
	var again bytes.Buffer
	if err := tr.EncodeBinary(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Error("the golden trace does not re-encode to itself")
	}
	// Every proper prefix is a truncated file: an error, never a panic.
	for n := range golden {
		if _, err := DecodeBinary(bytes.NewReader(golden[:n])); err == nil {
			t.Fatalf("a file truncated to %d of %d bytes decoded without error", n, len(golden))
		}
	}
}

// TestBinaryCorruptCount: the record counts are 32 bits read from the file.
// One that promises four billion records must fail when the file ends, not
// allocate for them first.
func TestBinaryCorruptCount(t *testing.T) {
	var empty bytes.Buffer
	if err := New(Config{SampleEvery: 1, Events: 8, Recent: 2, Slowest: 1}).EncodeBinary(&empty); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(bytes.NewReader(empty.Bytes())); err != nil {
		t.Fatalf("an empty tracer does not round-trip: %v", err)
	}
	// An empty export ends with its three zero counts: events, recent, slowest.
	for _, at := range []int{12, 8, 4} {
		blob := append([]byte(nil), empty.Bytes()...)
		binary.BigEndian.PutUint32(blob[len(blob)-at:], 0xFFFFFFFF)
		blob = append(blob, make([]byte, 100*47)...) // a hundred records' worth, not four billion
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := DecodeBinary(bytes.NewReader(blob))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("count at -%d: a four-billion-record count decoded without error", at)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("count at -%d: allocated %d bytes for a %d-byte file", at, grew, len(blob))
		}
	}
}

// TestChromeJSON: the Chrome trace_event export is valid JSON with the
// expected event phases, lists its traces in ascending order, and is the
// same bytes on every call.
func TestChromeJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 1 << 10, Recent: 32, Slowest: 4})
	for i := 0; i < 16; i++ {
		synthTrace(tr)
	}
	var buf, again bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two exports of the same tracer differ")
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	phases := map[string]int{}
	var pids []float64
	for _, e := range evs {
		phases[e["ph"].(string)]++
		if e["name"] == "process_name" {
			pids = append(pids, e["pid"].(float64))
		}
	}
	if phases["X"] == 0 || phases["M"] == 0 {
		t.Fatalf("phases = %v, want complete (X) and metadata (M) events", phases)
	}
	if len(pids) != 16 {
		t.Fatalf("export holds %d traces, want 16", len(pids))
	}
	for i := 1; i < len(pids); i++ {
		if pids[i] <= pids[i-1] {
			t.Fatalf("traces out of order: %v", pids)
		}
	}
}

// TestRecordPathAllocs is the 0-alloc guard: the record path must not
// allocate — neither when tracing is live nor when it is off (nil hop or
// unsampled request).
func TestRecordPathAllocs(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Events: 1 << 12, Recent: 64, Slowest: 8})
	h := tr.Hop("h")
	live := testing.AllocsPerRun(200, func() {
		if !tr.Enabled() {
			t.Fatal("a tracer sampling every request reports itself disabled")
		}
		ctx := tr.StartRequest()
		h.OpSpan(ctx, 1, 1, 1, 0, 5, 6)
		h.WireTx(ctx, 5)
		h.WireRx(ctx, 20)
		h.RingPush(ctx, 21)
		h.RingPop(ctx, 22)
		h.Switch(ctx, 23, 2)
		h.AppSpan(ctx, 1, 25, 40)
		h.Fault(ctx, 1, 30)
		h.EndRequest(ctx, 0, 100)
		tr.FaultAt(1, 50)
	})
	if live != 0 {
		t.Errorf("live record path allocates %v per request, want 0", live)
	}
	var off *Hop // sampling disabled: every hop is nil
	disabled := testing.AllocsPerRun(200, func() {
		off.OpSpan(0, 1, 1, 1, 0, 5, 6)
		off.WireTx(0, 5)
		off.Switch(0, 23, 2)
		off.AppSpan(0, 1, 25, 40)
		off.EndRequest(0, 0, 100)
	})
	if disabled != 0 {
		t.Errorf("disabled record path allocates %v, want 0", disabled)
	}
}
