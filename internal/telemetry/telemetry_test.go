package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry("test")
	c := r.Counter("rx")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("rx") != c {
		t.Fatalf("Counter(rx) did not return the same counter")
	}
	depth := int64(5)
	r.Sample("depth", func() int64 { return depth })
	live := int64(3)
	r.Sample("live", func() int64 { return live })

	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 5 {
		t.Fatalf("snapshot counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 2 {
		t.Fatalf("snapshot gauges = %+v", s.Gauges)
	}
	// Sorted by name: depth < live.
	if s.Gauges[0].Name != "depth" || s.Gauges[0].Value != 5 || s.Gauges[1].Name != "live" || s.Gauges[1].Value != 3 {
		t.Fatalf("snapshot gauges = %+v", s.Gauges)
	}
}

// TestRegistryCount: a count stays a field of its owner; the registry
// reads it through the pointer at snapshot time, Counter hands back the
// same word, and a second registration of a name panics.
func TestRegistryCount(t *testing.T) {
	var owner struct{ frames uint64 }
	r := NewRegistry("count")
	r.Count("frames", &owner.frames)
	owner.frames += 3
	if s := r.Snapshot(); len(s.Counters) != 1 || s.Counters[0].Value != 3 {
		t.Fatalf("snapshot counters = %+v, want frames=3", s.Counters)
	}
	r.Counter("frames").Inc()
	if owner.frames != 4 {
		t.Fatalf("Counter(frames).Inc left the field at %d, want 4", owner.frames)
	}
	defer func() {
		if recover() == nil {
			t.Error("registering frames twice did not panic")
		}
	}()
	r.Count("frames", new(uint64))
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Log-linear with 8 sub-buckets per octave bounds relative error at 12.5%.
	p50 := h.Quantile(0.50)
	if p50 < 500 || p50 > 570 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 1000 {
		t.Fatalf("p99 = %d, want ~990 (clamped to max 1000)", p99)
	}
	if got := h.Quantile(1.0); got != 1000 {
		t.Fatalf("p100 = %d, want 1000 (max)", got)
	}
	hv := h.snapshot("lat")
	if hv.Mean() != 500 {
		t.Fatalf("mean = %d, want 500", hv.Mean())
	}
	if hv.Min != 1 || hv.Max != 1000 {
		t.Fatalf("min/max = %d/%d", hv.Min, hv.Max)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's upper edge must map back to that bucket, and bucket
	// edges must be strictly increasing.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		hi := bucketHigh(i)
		if hi <= prev {
			t.Fatalf("bucket %d: high %d not > previous %d", i, hi, prev)
		}
		if hi >= 0 && bucketFor(hi) != i {
			t.Fatalf("bucket %d: bucketFor(%d) = %d", i, hi, bucketFor(hi))
		}
		prev = hi
	}
}

func TestMerge(t *testing.T) {
	a := NewRegistry("cpu0")
	a.Counter("rx").Add(10)
	a.Sample("depth", func() int64 { return 2 })
	ha := a.Histogram("lat")
	for i := int64(0); i < 100; i++ {
		ha.Observe(100)
	}
	b := NewRegistry("cpu1")
	b.Counter("rx").Add(5)
	b.Counter("tx").Add(1)
	b.Sample("depth", func() int64 { return 3 })
	hb := b.Histogram("lat")
	for i := int64(0); i < 100; i++ {
		hb.Observe(900)
	}

	m := Merge("merged", a.Snapshot(), b.Snapshot())
	if m.Name != "merged" {
		t.Fatalf("name = %q", m.Name)
	}
	if len(m.Counters) != 2 || m.Counters[0].Name != "rx" || m.Counters[0].Value != 15 ||
		m.Counters[1].Name != "tx" || m.Counters[1].Value != 1 {
		t.Fatalf("merged counters = %+v", m.Counters)
	}
	if len(m.Gauges) != 1 || m.Gauges[0].Value != 5 {
		t.Fatalf("merged gauges = %+v", m.Gauges)
	}
	if len(m.Hists) != 1 {
		t.Fatalf("merged hists = %+v", m.Hists)
	}
	h := m.Hists[0]
	if h.Count != 200 || h.Min != 100 || h.Max != 900 {
		t.Fatalf("merged hist count/min/max = %d/%d/%d", h.Count, h.Min, h.Max)
	}
	// Half the samples at 100, half at 900: p50 lands in the 100 bucket,
	// p99 in the 900 bucket (within log-linear error).
	if p50 := h.Quantile(0.50); p50 > 112 {
		t.Fatalf("merged p50 = %d, want ~100", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 800 {
		t.Fatalf("merged p99 = %d, want ~900", p99)
	}
}

func TestMergeEqualsBucketSum(t *testing.T) {
	// The merged histogram must equal the bucket-wise sum of the shards.
	a, b := NewRegistry("a"), NewRegistry("b")
	ha, hb := a.Histogram("lat"), b.Histogram("lat")
	for i := int64(0); i < 5000; i += 7 {
		ha.Observe(i)
		hb.Observe(i * 3)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	m := Merge("m", sa, sb)
	for i := range m.Hists[0].Buckets {
		want := sa.Hists[0].Buckets[i] + sb.Hists[0].Buckets[i]
		if m.Hists[0].Buckets[i] != want {
			t.Fatalf("bucket %d: merged %d != sum %d", i, m.Hists[0].Buckets[i], want)
		}
	}
}

func TestFlightRecorder(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	for i := 0; i < 6; i++ {
		fr.Record(Span{Token: uint64(i + 1), Op: OpPop,
			Issued: int64(i * 100), Completed: int64(i*100 + 10 + i), Redeemed: int64(i*100 + 20 + 2*i)})
	}
	if fr.Total() != 6 {
		t.Fatalf("total = %d", fr.Total())
	}
	spans := fr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want 4 (ring capacity)", len(spans))
	}
	// Oldest two evicted; chronological order preserved.
	if spans[0].Token != 3 || spans[3].Token != 6 {
		t.Fatalf("spans = %+v", spans)
	}
	slow := fr.Slowest()
	if len(slow) != 2 {
		t.Fatalf("slowest = %+v", slow)
	}
	// Total latency grows with i, so tokens 6 and 5 are slowest.
	if slow[0].Token != 6 || slow[1].Token != 5 {
		t.Fatalf("slowest = %+v", slow)
	}
	if slow[0].Total() <= slow[1].Total() {
		t.Fatalf("slowest not sorted: %d then %d", slow[0].Total(), slow[1].Total())
	}
}

func TestFlightDumpFormat(t *testing.T) {
	fr := NewFlightRecorder(16, 4)
	fr.Record(Span{Token: 1, Op: OpPush, QD: 3, Issued: 100, Completed: 1500, Redeemed: 1700})
	fr.Record(Span{Token: 2, Op: OpPop, QD: 3, Issued: 200, Completed: 5200, Redeemed: 5900})
	var buf bytes.Buffer
	fr.WriteDump(&buf)
	out := buf.String()
	for _, want := range []string{
		"stage order (Fig 5 in-OS decomposition): issue(libcall) -> complete(I/O stack) -> redeem(wait/sched)",
		"push", "pop", "slowest spans:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// The pop span is slower and must rank first.
	if strings.Index(out, "slowest") > strings.Index(out, "rank") {
		t.Fatalf("dump layout unexpected:\n%s", out)
	}
}

func TestExportersDeterministic(t *testing.T) {
	build := func() *Snapshot {
		r := NewRegistry("node/os")
		r.Counter("tcp.retransmits").Add(3)
		r.Counter("rx.frames").Add(99)
		r.Sample("ooo-depth", func() int64 { return 2 })
		h := r.Histogram("qtoken.latency_ns")
		for i := int64(0); i < 1000; i++ {
			h.Observe(i * 13 % 7919)
		}
		return r.Snapshot()
	}
	render := func(s *Snapshot) string {
		var buf bytes.Buffer
		s.WriteText(&buf)
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		s.WritePrometheus(&buf)
		return buf.String()
	}
	a, b := render(build()), render(build())
	if a != b {
		t.Fatalf("exports not byte-identical:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "demikernel_tcp_retransmits") {
		t.Fatalf("prometheus name sanitization missing:\n%s", a)
	}
	if !strings.Contains(a, `le="+Inf"`) {
		t.Fatalf("prometheus histogram missing +Inf bucket:\n%s", a)
	}
	if !strings.Contains(a, "== telemetry: node/os ==") {
		t.Fatalf("text header missing:\n%s", a)
	}
}
