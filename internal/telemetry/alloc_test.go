package telemetry

import "testing"

// The whole point of a kernel-bypass datapath is that nothing unexpected
// runs on it; instrumentation that allocates would add GC pressure and
// jitter at exactly the microsecond scale the paper measures. These tests
// pin every hot-path operation at zero Go heap allocations.

// sinkInt keeps the span reads from being optimized away.
var sinkInt int64

func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry("alloc")
	c := r.Counter("c")
	h := r.Histogram("h")
	fr := NewFlightRecorder(1024, 8)
	span := Span{Token: 1, Op: OpPop, Issued: 10, Completed: 1200, Redeemed: 1300}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Histogram.Observe", func() { h.Observe(1234) }},
		{"FlightRecorder.Record", func() { fr.Record(span) }},
		{"Span.InOS", func() { sinkInt = span.InOS() }},
		{"Span.RedeemDelay", func() { sinkInt = span.RedeemDelay() }},
		{"Span.Total", func() { sinkInt = span.Total() }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("CounterInc", func(b *testing.B) {
		r := NewRegistry("bench")
		c := r.Counter("c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		r := NewRegistry("bench")
		h := r.Histogram("h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("FlightRecord", func(b *testing.B) {
		fr := NewFlightRecorder(4096, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fr.Record(Span{Token: uint64(i), Op: OpPop,
				Issued: int64(i), Completed: int64(i + 1000), Redeemed: int64(i + 1100)})
		}
	})
}
