package bench

import (
	"bytes"
	"strings"
	"testing"

	"demikernel/internal/apps/echo"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
	"demikernel/internal/wire"
)

// Every world the driver runs must leave its clients settled, and a world
// run to idle its servers too. A tiny echo world that stops when its client
// returns, with a leaked client buffer or a client token nobody redeems
// planted, must fail the run for it; so must the same world run to idle
// with a completed server token nobody redeems planted. Each world without
// one must pass.
func TestWorldRefusesUnsettledClients(t *testing.T) {
	for _, tc := range []struct {
		mutant    string
		untilIdle bool
		want      string
	}{
		{"", false, ""},
		{"leaked buffer", false, "1 DMA buffers leaked on a client heap"},
		{"dropped token", false, "1 qtokens still outstanding on a client"},
		{"unredeemed push", false, "1 qtokens still outstanding on a client"},
		{"", true, ""},
		{"unredeemed server push", true, "1 completed qtokens never redeemed on a server"},
	} {
		tb := NewTestbed(1, SwitchEth())
		srv := tb.NewStack(SysCatnipTCP(), "srv", wire.IPAddr{10, 60, 0, 1})
		cli := tb.NewStack(SysCatnipTCP(), "cli", wire.IPAddr{10, 60, 0, 2})
		tb.SeedARP()
		addr := core.Addr{IP: srv.IP, Port: 7}
		w := &world{title: "tiny " + tc.mutant, eng: tb.Eng, stacks: []*Stack{srv, cli}, untilIdle: tc.untilIdle,
			servers: []proc{{srv, func() error {
				if tc.mutant == "unredeemed server push" {
					if err := pushUnwaited(srv.OS, core.Addr{IP: cli.IP, Port: 9}); err != nil {
						return err
					}
				}
				return echo.Server(srv.OS, echo.ServerConfig{Addr: addr})
			}}},
			clients: []proc{{cli, func() error {
				if _, err := echo.Client(cli.OS, addr, 64, 20, 2, cli.Node); err != nil {
					return err
				}
				switch tc.mutant {
				case "leaked buffer":
					memory.CopyFrom(cli.OS.Heap(), []byte("leak"))
				case "dropped token":
					qd, err := dial(cli.OS, addr)
					if err != nil {
						return err
					}
					_, err = cli.OS.Pop(qd)
					return err
				case "unredeemed push":
					return pushUnwaited(cli.OS, core.Addr{IP: srv.IP, Port: 9})
				}
				return nil
			}}},
		}
		err := w.run()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("settled world (untilIdle %v) refused: %v", tc.untilIdle, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: run returned %v, want an error saying %q", tc.mutant, err, tc.want)
		}
	}
}

// pushUnwaited sends a datagram to a resolved address, which completes at
// once, and never waits on its token.
func pushUnwaited(l demi.LibOS, to core.Addr) error {
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		return err
	}
	buf := memory.CopyFrom(l.Heap(), []byte("x"))
	defer buf.Free()
	_, err = l.PushTo(qd, core.SGA(buf), to)
	return err
}

// TestTelemetryReachesEveryWorld runs every driver-backed runner at a small
// size with the telemetry sink set, and requires one dump per world it ran,
// each holding a registry snapshot.
func TestTelemetryReachesEveryWorld(t *testing.T) {
	var buf bytes.Buffer
	SetTelemetrySink(&buf)
	defer SetTelemetrySink(nil)
	echoOpts := smallEchoOpts()
	loadOpts := echoOpts
	loadOpts.Clients = 3
	redisOpts := RedisOpts{Keys: 200, Ops: 100, ValueSize: 64}
	txnOpts := TxnOpts{Keys: 100, Txns: 50, ValueSize: 700}
	scaleOpts := DefaultScaleOutOpts()
	scaleOpts.FlowsPerCore, scaleOpts.Rounds, scaleOpts.Warmup, scaleOpts.KVOps = 2, 50, 5, 50
	soak := func(sc *soakScenario) func() error {
		return func() error { _, err := sc.run(sc.seeds[0]); return err }
	}
	for _, tc := range []struct {
		name   string
		worlds int
		run    func() error
	}{
		{"echo", 1, func() error { _, err := RunEcho(SysCatnipTCP(), echoOpts); return err }},
		{"echo load", 1, func() error { _, err := RunEcho(SysCatnipUDP(), loadOpts); return err }},
		{"raw DPDK", 1, func() error { _, err := RunRawDPDKEcho(64, 50); return err }},
		{"raw RDMA", 1, func() error { _, err := RunRawRDMAEcho(64, 50); return err }},
		{"relay", 1, func() error { _, err := RunRelay(SysCatnipUDP(), 50); return err }},
		{"redis", 2, func() error { _, _, err := RunRedis(SysCatnipTCP(), redisOpts); return err }},
		{"txnstore", 1, func() error { _, err := RunTxnStore(SysCatmint(0), txnOpts); return err }},
		{"scale-out echo", 1, func() error { _, err := RunScaleOutEcho(2, scaleOpts); return err }},
		{"scale-out kv", 1, func() error { _, err := RunScaleOutKV(2, true, scaleOpts); return err }},
		{"chain catmem", 1, func() error { _, err := runChain("catmem", 50, nil); return err }},
		{"chain catloop", 1, func() error { _, err := runChain("catloop", 50, nil); return err }},
		{"chaos soak", 1, soak(chaosSoak)},
		{"tenant soak", 2, soak(tenantSoak)},
		{"mixed soak", 1, soak(mixedSoak)},
	} {
		buf.Reset()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dumps := strings.Split(buf.String(), "\n-- telemetry: ")[1:]
		if len(dumps) != tc.worlds {
			t.Errorf("%s: %d telemetry dumps, want one per world (%d)", tc.name, len(dumps), tc.worlds)
		}
		for _, d := range dumps {
			if !strings.Contains(d, "== telemetry: ") {
				t.Errorf("%s: dump %q holds no registry snapshot", tc.name, strings.SplitN(d, "\n", 2)[0])
			}
		}
	}
}
