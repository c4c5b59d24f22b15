package bench

import (
	"fmt"

	"demikernel/internal/apps/txnstore"
	"demikernel/internal/baseline"
	"demikernel/internal/core"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
	"demikernel/internal/ycsb"
)

// TxnOpts configures Figure 12 (paper: YCSB-t workload F, 64 B keys, 700 B
// values, quorum writes to 3 replicas; scaled op count).
type TxnOpts struct {
	Keys, Txns, ValueSize int
}

// DefaultTxnOpts scales the paper's configuration.
func DefaultTxnOpts() TxnOpts {
	return TxnOpts{Keys: 2000, Txns: 1500, ValueSize: 700}
}

// RunTxnStore measures per-transaction latency for workload F on one
// stack: 1 client, 3 replicas.
func RunTxnStore(sys System, opts TxnOpts) (*Hist, error) {
	tb := NewTestbed(13, SwitchEth())
	cli := tb.NewStack(sys, "txn-client", wire.IPAddr{10, 12, 0, 100})
	w := &world{title: "txnstore on " + sys.Name, eng: tb.Eng, stacks: []*Stack{cli}}
	var addrs []core.Addr
	for i := 0; i < 3; i++ {
		st := tb.NewStack(sys, fmt.Sprintf("replica%d", i), wire.IPAddr{10, 12, 0, byte(1 + i)})
		r, addr := txnstore.NewReplica(), core.Addr{IP: st.IP, Port: 7000}
		w.servers = append(w.servers, proc{st, func() error { return r.Serve(st.OS, addr) }})
		w.stacks, addrs = append(w.stacks, st), append(addrs, addr)
	}
	tb.SeedARP()
	h := &Hist{}
	w.clients = []proc{{cli, func() error { return runTxns(cli, addrs, opts, h) }}}
	if err := w.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", sys.Name, err)
	}
	return h, nil
}

// runTxns is the TxnStore client: it preloads a tenth of the keys, then
// runs opts.Txns workload F transactions, adding each one's latency to h.
func runTxns(cli *Stack, replicas []core.Addr, opts TxnOpts, h *Hist) error {
	rng := sim.NewRand(23)
	c, err := txnstore.Dial(cli.OS, replicas, rng.Fork())
	if err != nil {
		return err
	}
	defer c.Close()
	// Preload keys through the protocol so replicas agree.
	value := make([]byte, opts.ValueSize)
	for i := 0; i < opts.Keys/10; i++ {
		txn := c.Begin()
		txn.Put(ycsb.Key(i), value)
		if ok, err := txn.Commit(); err != nil || !ok {
			return fmt.Errorf("preload: %v", err)
		}
	}
	w := ycsb.WorkloadF(ycsb.NewUniform(opts.Keys/10, rng.Fork()), rng.Fork())
	for i := 0; i < opts.Txns; i++ {
		op := w.Next()
		start := cli.Node.Now()
		txn := c.Begin()
		v, err := txn.Get(ycsb.Key(op.Key))
		if err != nil {
			return err
		}
		if op.Kind == ycsb.OpRMW {
			mod := append([]byte(nil), v...)
			if len(mod) == 0 {
				mod = make([]byte, opts.ValueSize)
			}
			mod[0]++
			txn.Put(ycsb.Key(op.Key), mod)
			if _, err := txn.Commit(); err != nil {
				return err
			}
		}
		h.Add(cli.Node.Now().Sub(start))
	}
	return nil
}

// Fig12 regenerates Figure 12: TxnStore YCSB-t latency across transports.
func Fig12() (*Table, error) {
	t := &Table{
		Title:  "Figure 12: TxnStore YCSB-t transaction latency (workload F, 700B values, 3-way puts)",
		Note:   "paper shape: Linux TCP worst; Catnap −69% vs TCP; Catmint and Catnip competitive with (and beating) the custom RDMA stack",
		Header: []string{"system", "avg (µs)", "p99 (µs)"},
	}
	opts := DefaultTxnOpts()
	for _, sys := range []System{SysLinux(baseline.EnvNative).named("Linux (TCP)"), SysTxnStoreRDMA(),
		SysCatnap(baseline.EnvNative), SysCatmint(0), SysCatnipTCP()} {
		h, err := RunTxnStore(sys, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(sys.Name, Micros(h.Mean()), Micros(h.P99()))
	}
	return t, nil
}
