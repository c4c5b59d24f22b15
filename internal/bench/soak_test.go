package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/wire"
)

// TestSoaks runs every soak scenario over its pinned seeds through the
// soak driver: each seed twice, both runs settled with their fault and attack
// tables covered, and the two telemetry dumps byte-identical. CI runs it
// under -race.
func TestSoaks(t *testing.T) {
	for _, sc := range soaks {
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range sc.seeds {
				row, err := sc.soak(seed)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("seed %d: %s", seed, strings.Join(row, "  "))
			}
		})
	}
}

// The soaks are trusted to catch leaks, stranded tokens, silent fault sites,
// attacks nobody tried and runs that do not replay. A tiny world run through
// the soak driver with one of those planted must be refused for it, and the world
// without one accepted.
func TestSoaksRefuseMutants(t *testing.T) {
	for _, tc := range []struct{ mutant, want string }{
		{"", ""},
		{"leaked buffer", "DMA buffers leaked"},
		{"outstanding pop", "qtokens still outstanding"},
		{"silent fault site", "never fired"},
		{"attack never tried", "never rejected"},
		{"counter differs between runs", "replay diverged"},
	} {
		runs := 0
		sc := &soakScenario{name: "tiny", run: func(seed uint64) (*soakRun, error) {
			runs++
			return tinyWorld(seed, tc.mutant, runs)
		}}
		_, err := sc.soak(1)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("unmutated world refused: %v", err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("mutant %q: soak driver returned %v, want an error saying %q", tc.mutant, err, tc.want)
		}
	}
}

// tinyWorld is one Catnip echo pair with a one-row fault table and a
// one-class attack table (a guessed qtoken), with mutant planted; run is
// which run of the seed this is.
func tinyWorld(seed uint64, mutant string, run int) (*soakRun, error) {
	tb := NewTestbed(seed, SwitchEth())
	srv := tb.NewStack(SysCatnipTCP(), "srv", wire.IPAddr{10, 50, 0, 1})
	cli := tb.NewStack(SysCatnipTCP(), "cli", wire.IPAddr{10, 50, 0, 2})
	tb.SeedARP()
	w := &soakWorld{world: world{title: "tiny", eng: tb.Eng, untilIdle: true, stacks: []*Stack{srv, cli}}}
	spec := faults.Spec{Every: 29, Max: 1}
	if mutant == "silent fault site" {
		spec.After = time.Hour
	}
	site := w.sites(seed, []faultSite{{"dpdk.corrupt", spec}})
	srv.Port.SetFaults(dpdkdev.Faults{Corrupt: site["dpdk.corrupt"]})
	addr := core.Addr{IP: srv.IP, Port: 7}

	c, rounds := heapClient(cli.OS, addr, false), 50
	if mutant == "counter differs between runs" {
		rounds += run // an input that changes between runs of one seed
	}
	rejected := attackCount{name: "guessed qtoken"}
	var planted []any // what a mutant leaves behind
	w.servers = []proc{{srv, func() error { return echo.Server(srv.OS, echo.ServerConfig{Addr: addr}) }}}
	w.clients = []proc{{cli, func() error {
		if err := c.run(rounds); err != nil {
			return err
		}
		if mutant != "attack never tried" {
			if _, werr := cli.OS.Wait(core.QToken(1 << 40)); errors.Is(werr, core.ErrBadQToken) {
				rejected.n++
			}
		}
		switch mutant {
		case "leaked buffer":
			planted = append(planted, memory.CopyFrom(cli.OS.Heap(), []byte("leak")))
		case "outstanding pop":
			qd, _ := dial(cli.OS, addr)
			qt, _ := cli.OS.Pop(qd)
			planted = append(planted, qt)
		}
		return nil
	}}}
	if err := w.run(); err != nil {
		return nil, err
	}
	w.attacks = []attackCount{rejected}
	return &soakRun{worlds: []*soakWorld{w}}, nil
}
