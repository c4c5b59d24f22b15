package bench

import (
	"fmt"

	"demikernel/internal/apps/kv"
	"demikernel/internal/baseline"
	"demikernel/internal/core"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
	"demikernel/internal/ycsb"
)

// RedisOpts configures the Figure 11 runs (paper: 64 B values, 1 M keys,
// 500 k accesses per operation; scaled for simulation runtime).
type RedisOpts struct {
	Keys, Ops, ValueSize int
	AOF                  bool
}

// DefaultRedisOpts scales the paper's parameters for tractable runtime.
func DefaultRedisOpts() RedisOpts {
	return RedisOpts{Keys: 10000, Ops: 4000, ValueSize: 64}
}

// RunRedis measures GET and SET throughput (separate passes, like
// redis-benchmark) for one server stack.
func RunRedis(sys System, opts RedisOpts) (getOps, setOps float64, err error) {
	for _, pass := range []string{"SET", "GET"} {
		tput, perr := runRedisPass(sys, opts, pass)
		if perr != nil {
			return 0, 0, fmt.Errorf("%s %s: %w", sys.Name, pass, perr)
		}
		if pass == "GET" {
			getOps = tput
		} else {
			setOps = tput
		}
	}
	return getOps, setOps, nil
}

func runRedisPass(sys System, opts RedisOpts, pass string) (float64, error) {
	tb := NewTestbed(11, SwitchEth())
	sys.Storage = opts.AOF
	srv := tb.NewStack(sys, "redis", wire.IPAddr{10, 11, 0, 1})
	// Client and server machines use matching configurations (paper §7.1:
	// "some Demikernel libOSes require both clients and servers run the
	// same libOS").
	sys.Storage = false
	cli := tb.NewStack(sys, "bench-client", wire.IPAddr{10, 11, 0, 2})
	tb.SeedARP()
	addr := core.Addr{IP: srv.IP, Port: 6379}
	cfg := kv.ServerConfig{Addr: addr}
	if opts.AOF {
		cfg.AOFName = "appendonly.aof"
	}
	var stats kv.ServerStats
	var res kv.BenchResult
	w := &world{title: fmt.Sprintf("redis %s on %s", pass, sys.Name), eng: tb.Eng, stacks: []*Stack{srv, cli},
		servers: []proc{{srv, func() error { return kv.Server(srv.OS, cfg, &stats) }}},
		clients: []proc{{cli, func() error {
			c, err := kv.Dial(cli.OS, addr)
			if err != nil {
				return err
			}
			defer c.Close()
			rng := sim.NewRand(17)
			keys := ycsb.NewUniform(opts.Keys, rng)
			// Preload a slice of the keyspace so GETs hit.
			for i := 0; i < opts.Keys/10; i++ {
				if err := c.Set(ycsb.Key(i), make([]byte, opts.ValueSize)); err != nil {
					return err
				}
			}
			isSet := func(i int) bool { return pass == "SET" }
			keyFn := func(i int) []byte {
				if pass == "GET" {
					return ycsb.Key(keys.Next() % (opts.Keys / 10))
				}
				return ycsb.Key(keys.Next())
			}
			res, err = c.Benchmark(opts.Ops, opts.ValueSize, keyFn, isSet, cli.Node)
			return err
		}}},
	}
	if err := w.run(); err != nil {
		return 0, err
	}
	return res.OpsPerSec(), nil
}

// Fig11 regenerates Figure 11: Redis GET/SET throughput in-memory and with
// the fsync-per-write append-only file.
func Fig11() (*Table, error) {
	t := &Table{
		Title:  "Figure 11: Redis benchmark throughput (64B values)",
		Note:   "paper shape: in-memory Catmint ~2x Linux, Catnip +20%; with AOF, Demikernel keeps ~90% of unmodified in-memory Redis throughput while Linux collapses",
		Header: []string{"system", "mode", "GET kops/s", "SET kops/s"},
	}
	opts := DefaultRedisOpts()
	for _, aof := range []bool{false, true} {
		opts.AOF = aof
		mode, catmint, catnip := "in-memory", SysCatmint(0), SysCatnipTCP()
		if opts.AOF {
			mode, catmint, catnip = "AOF (fsync/SET)", catmintCattree(), catnipCattreeTCP()
		}
		for _, sys := range []System{SysLinux(baseline.EnvNative), SysCatnap(baseline.EnvNative), catmint, catnip} {
			get, set, err := RunRedis(sys, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(sys.Name, mode, fmt.Sprintf("%.0f", get/1e3), fmt.Sprintf("%.0f", set/1e3))
		}
	}
	return t, nil
}
