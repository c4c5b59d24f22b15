package bench

import (
	"bytes"
	"strings"
	"testing"

	"demikernel/internal/apps/echo"
	"demikernel/internal/multicore"
	"demikernel/internal/telemetry"
)

// smallEchoOpts is a fig5-style run sized for test speed.
func smallEchoOpts() EchoOpts {
	o := DefaultEchoOpts()
	o.Rounds = 200
	o.Warmup = 20
	return o
}

// runEchoWithTelemetry runs one instrumented echo and returns the dump.
func runEchoWithTelemetry(t *testing.T, sys System, opts EchoOpts) string {
	t.Helper()
	var buf bytes.Buffer
	SetTelemetrySink(&buf)
	defer SetTelemetrySink(nil)
	if _, err := RunEcho(sys, opts); err != nil {
		t.Fatalf("RunEcho: %v", err)
	}
	return buf.String()
}

// TestTelemetryDeterministicDump checks the headline acceptance criterion:
// two same-seed fig5-style runs produce byte-identical telemetry dumps, and
// the flight-recorder dump orders stages the way Figure 5 decomposes in-OS
// time.
func TestTelemetryDeterministicDump(t *testing.T) {
	opts := smallEchoOpts()
	a := runEchoWithTelemetry(t, SysCatnipTCP(), opts)
	b := runEchoWithTelemetry(t, SysCatnipTCP(), opts)
	if a != b {
		t.Fatalf("same-seed telemetry dumps differ:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	if !strings.Contains(a, "stage order (Fig 5 in-OS decomposition): issue(libcall) -> complete(I/O stack) -> redeem(wait/sched)") {
		t.Fatalf("dump missing Fig 5 stage-order line:\n%s", a)
	}
	for _, want := range []string{
		"core.qtoken_latency_ns",
		"catnip.rx_frames",
		"sched.polls",
		"mem.allocs",
		"flight recorder",
		"slowest spans",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

// TestTelemetryDumpAcrossSystems checks the flight recorder attaches through
// the baseline wrappers and combined (net x storage) stacks too.
func TestTelemetryDumpAcrossSystems(t *testing.T) {
	opts := smallEchoOpts()
	for _, sys := range []System{SysCatmint(0), catnipCattreeTCP()} {
		dump := runEchoWithTelemetry(t, sys, opts)
		if !strings.Contains(dump, "flight recorder") {
			t.Errorf("%s: dump has no flight-recorder section", sys.Name)
		}
		if !strings.Contains(dump, "-- telemetry: "+sys.Name+" --\n== server ==\n") {
			t.Errorf("%s: dump has no server section", sys.Name)
		}
	}
}

// TestScaleOutMergedTelemetry checks that a scale-out run's merged histogram
// equals the bucket-wise merge of the per-core histograms (satellite 3).
func TestScaleOutMergedTelemetry(t *testing.T) {
	opts := DefaultScaleOutOpts()
	opts.Rounds = 200
	opts.Warmup = 20
	const cores = 2
	c := newScaleOutCluster(cores, opts)
	if err := runScaleOutEchoOn(c, opts); err != nil {
		t.Fatalf("scale-out echo: %v", err)
	}
	perCore := c.grp.CoreTelemetry()
	if len(perCore) != cores {
		t.Fatalf("CoreTelemetry: got %d snapshots, want %d", len(perCore), cores)
	}
	merged := c.grp.MergedTelemetry()
	manual := telemetry.Merge(merged.Name, perCore...)

	var a, b bytes.Buffer
	merged.WriteText(&a)
	manual.WriteText(&b)
	if a.String() != b.String() {
		t.Fatalf("MergedTelemetry != Merge(per-core):\n--- merged ---\n%s\n--- manual ---\n%s", a.String(), b.String())
	}

	// The merged qtoken-latency histogram must be the exact bucket sum of
	// the shards, with count and sum preserved.
	mh := findHist(t, merged, "core.qtoken_latency_ns")
	var count, sum uint64
	buckets := make([]uint64, len(mh.Buckets))
	for _, snap := range perCore {
		h := findHist(t, snap, "core.qtoken_latency_ns")
		if h.Count == 0 {
			t.Fatalf("%s: core recorded no qtoken latencies", snap.Name)
		}
		count += h.Count
		sum += uint64(h.Sum)
		for i, v := range h.Buckets {
			buckets[i] += v
		}
	}
	if mh.Count != count || uint64(mh.Sum) != sum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", mh.Count, mh.Sum, count, sum)
	}
	for i, v := range mh.Buckets {
		if v != buckets[i] {
			t.Fatalf("merged bucket %d = %d, want %d", i, v, buckets[i])
		}
	}
}

// runScaleOutEchoOn drives the echo workload on an already-built cluster so
// the test can inspect the group afterwards (RunScaleOutEcho builds and
// discards its own cluster).
func runScaleOutEchoOn(c *scaleOutCluster, opts ScaleOutOpts) error {
	return c.run("scale-out echo", func(sc *multicore.Core) error {
		return echo.Server(sc.OS, echo.ServerConfig{Addr: c.svc, MaxConns: 2 * opts.FlowsPerCore})
	}, func(j int) error {
		_, err := echo.ClientFrom(c.clients[j].OS, c.localAddr(j), c.svc,
			opts.MsgSize, opts.Rounds, opts.Warmup, c.clients[j].Node)
		return err
	})
}

func findHist(t *testing.T, s *telemetry.Snapshot, name string) telemetry.HistVal {
	t.Helper()
	for _, h := range s.Hists {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("%s: histogram %q not found", s.Name, name)
	return telemetry.HistVal{}
}
