package bench

import (
	"testing"
	"time"

	"demikernel/internal/rack"
	"demikernel/internal/reqsched"
)

// smokeRackConfig is a topology small enough for -race CI, running
// power-of-2 placement over DARC.
func smokeRackConfig(seed uint64) rack.Config {
	cfg := rack.DefaultConfig()
	cfg.Servers, cfg.Clients, cfg.Seed = 4, 8, seed
	cfg.HostPolicy = reqsched.DARC{Reserved: rackReserved}
	cfg.Workload.Requests = 50
	cfg.Workload.MeanThink = 2 * time.Microsecond
	cfg.Workload.MaxSize = 32 << 10
	return cfg
}

// TestRackSmoke drives the two-layer rack at small scale across three
// seeds, and asserts replay byte-identity: the same seed reruns to the
// same telemetry text and the same latency stream.
func TestRackSmoke(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := smokeRackConfig(seed)
		a, err := rack.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := cfg.Clients * cfg.Workload.Requests
		if got := len(a.ShortLats) + len(a.LongLats); got != total {
			t.Fatalf("seed %d: completed %d of %d requests", seed, got, total)
		}
		if a.Resyncs == 0 {
			t.Fatalf("seed %d: ToR absorbed no load trailers", seed)
		}
		b, err := rack.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if a.TelemetryText != b.TelemetryText {
			t.Errorf("seed %d: replay telemetry not byte-identical", seed)
		}
		if len(a.ShortLats) != len(b.ShortLats) {
			t.Fatalf("seed %d: replay diverged in request accounting", seed)
		}
		for i := range a.ShortLats {
			if a.ShortLats[i] != b.ShortLats[i] {
				t.Fatalf("seed %d: replay diverged at short latency %d", seed, i)
			}
		}
	}
}

// TestRackTablesRender: the full sweep produces both tables with a row per
// policy-matrix cell.
func TestRackTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full rack sweep in -short mode")
	}
	tables, err := Rack()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Rack() returned %d tables, want 2", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 6 {
			t.Errorf("table %q has %d rows, want 6", tb.Title, len(tb.Rows))
		}
	}
}
