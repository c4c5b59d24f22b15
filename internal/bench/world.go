package bench

// The world driver. Every experiment in this package that builds a
// simulated cluster — each paper-table runner and each soak — hands it to
// run, which runs it one way: it starts the server mains, then the client
// mains, each on its own node; stops when the last client returns, or at
// idle for a world whose closes count; requires every client to have
// settled (no qtoken unredeemed, no buffer live) and, at idle, every server
// (no completed qtoken unredeemed); and, with a telemetry sink set, dumps
// the world there with its flight recorders. The rack experiment builds its
// world inside internal/rack and is the exception.

import (
	"errors"
	"fmt"
	"io"

	"demikernel/internal/catmint"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/faults"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// telemetrySink, when set, makes every world dump its telemetry (registry
// snapshots + flight-recorder spans) after it runs — the demi-bench
// -telemetry flag. All dumped values are virtual time, so two same-seed
// runs write byte-identical dumps.
var telemetrySink io.Writer

// SetTelemetrySink directs post-run telemetry dumps to w (nil disables).
func SetTelemetrySink(w io.Writer) { telemetrySink = w }

// A world is one simulated cluster and the node mains that drive it.
type world struct {
	title string // the dump's header on the telemetry sink
	eng   *sim.Engine
	// stacks is every host the dump covers, in dump order. A stack with no
	// libOS is a raw device host (the testpmd and perftest floors).
	stacks           []*Stack
	servers, clients []proc
	// untilIdle runs the engine until nothing is left to run, so the
	// clients' closes land in busy times and dumps; otherwise it stops
	// when the last client returns.
	untilIdle bool
	plan      *faults.Plan // dumped after the stacks; nil when nothing is injected
	noDevices bool         // dump the libOS registries only
}

// A proc is one node main: st's node runs it.
type proc struct {
	st   *Stack
	main func() error
}

// errUnfinished is a client that never returned.
var errUnfinished = errors.New("client never finished")

// run runs w and returns every error its mains returned or, failing that,
// the first way a client did not settle.
func (w *world) run() error {
	var frs []*telemetry.FlightRecorder
	if telemetrySink != nil {
		for i, st := range w.stacks {
			frs = append(frs, instrument(st, i))
		}
	}
	errs := make([]error, len(w.servers)+len(w.clients))
	for i, p := range w.servers {
		i, p := i, p
		w.eng.Spawn(p.st.Node, func() { errs[i] = p.main() })
	}
	left := len(w.clients)
	for i, p := range w.clients {
		i, p := len(w.servers)+i, p
		errs[i] = errUnfinished
		w.eng.Spawn(p.st.Node, func() {
			errs[i] = p.main()
			if left--; left == 0 && !w.untilIdle {
				w.eng.Stop()
			}
		})
	}
	w.eng.Run()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := w.settled(); err != nil {
		return err
	}
	if telemetrySink != nil {
		fmt.Fprintf(telemetrySink, "\n-- telemetry: %s --\n", w.title)
		w.dump(telemetrySink, frs)
	}
	return nil
}

// settled returns the first client that left a qtoken unredeemed, complete
// or not, or a buffer live. Catmint keeps receive buffers posted to the
// NIC, so its heap is not checked. In a world run to idle it then returns
// the first server that holds a completed qtoken nobody redeemed; its
// parked accepts and pops are incomplete, so they do not count. A world
// that stops at its last client's return is not checked there: WaitAny
// hands back one completed token per call, so a correct server can still
// hold a completed one at that instant.
func (w *world) settled() error {
	for _, p := range w.clients {
		if p.st.OS == nil {
			continue // a raw device host
		}
		parts := components(p.st.OS)
		for _, c := range parts {
			if t, ok := c.(tokener); ok {
				if n := t.Tokens().Unredeemed(); n != 0 {
					return fmt.Errorf("%d qtokens still outstanding on a client", n)
				}
			}
		}
		if _, ok := parts[0].(*catmint.LibOS); ok {
			continue
		}
		if n := p.st.OS.Heap().LiveObjects(); n != 0 {
			return fmt.Errorf("%d DMA buffers leaked on a client heap", n)
		}
	}
	if !w.untilIdle {
		return nil
	}
	for _, p := range w.servers {
		if p.st.OS == nil {
			continue
		}
		for _, c := range components(p.st.OS) {
			if t, ok := c.(tokener); ok {
				if n := t.Tokens().Unredeemed() - t.Tokens().Outstanding(); n != 0 {
					return fmt.Errorf("%d completed qtokens never redeemed on a server", n)
				}
			}
		}
	}
	return nil
}

// dump writes w's telemetry to out: each stack's libOS registry under its
// node's name, its devices' under name/port, name/nic and name/disk, and
// its flight recorder's spans when frs holds one; then the fault plan's.
func (w *world) dump(out io.Writer, frs []*telemetry.FlightRecorder) {
	section := func(name string, reg *telemetry.Registry) {
		if reg != nil {
			fmt.Fprintf(out, "== %s ==\n", name)
			reg.Snapshot().WriteText(out)
		}
	}
	for i, st := range w.stacks {
		name := st.Node.Name()
		section(name, stackTelemetry(st.OS))
		if !w.noDevices {
			if st.Port != nil {
				section(name+"/port", st.Port.Telemetry())
			}
			if st.NIC != nil {
				section(name+"/nic", st.NIC.Telemetry())
			}
			if st.Disk != nil {
				section(name+"/disk", st.Disk.Telemetry())
			}
		}
		if i < len(frs) && frs[i] != nil {
			frs[i].WriteDump(out)
		}
	}
	if w.plan != nil {
		section("faults", w.plan.Telemetry())
	}
}

// instrument attaches a flight recorder to every qtoken table in st and
// labels its spans with coreID. It returns nil if st has no qtoken table.
func instrument(st *Stack, coreID int) *telemetry.FlightRecorder {
	var fr *telemetry.FlightRecorder
	for _, c := range components(st.OS) {
		if t, ok := c.(tokener); ok {
			if fr == nil {
				fr = telemetry.NewFlightRecorder(4096, 8)
			}
			t.Tokens().Instrument(st.Node, coreID)
			t.Tokens().SetRecorder(fr)
		}
	}
	return fr
}

// telemetrer is any libOS (or device) exposing a metric registry.
type telemetrer interface {
	Telemetry() *telemetry.Registry
}

// tokener is any libOS exposing its qtoken table for instrumentation.
type tokener interface {
	Tokens() *core.TokenTable
}

// components unwraps a stack's libOS into its constituent instrumented
// parts: Combined splits into net + storage.
func components(os any) []any {
	switch v := os.(type) {
	case *demi.Combined:
		return append(components(v.Net), components(v.Stor)...)
	default:
		return []any{os}
	}
}

// stackTelemetry digs the telemetry registry out of a libOS (the network
// half of a net+storage combination).
func stackTelemetry(os demi.LibOS) *telemetry.Registry {
	if t, ok := components(os)[0].(telemetrer); ok {
		return t.Telemetry()
	}
	return nil
}
