package bench

import (
	"fmt"
	"time"

	"demikernel/internal/baseline"
	"demikernel/internal/catmint"
	"demikernel/internal/catnip"
	"demikernel/internal/demi"
	"demikernel/internal/reqsched"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
)

// Ablations isolate the design choices DESIGN.md calls out, each on the
// same stack with one dimension flipped.

// AblationZeroCopy compares zero-copy and forced-copy Catnip at several
// message sizes (the paper's 1 KiB threshold rationale: zero-copy "offers
// a significant performance improvement only for buffers over 1 kB").
func AblationZeroCopy() (*Table, error) {
	t := &Table{
		Title:  "Ablation: zero-copy vs forced-copy Catnip (echo RTT)",
		Header: []string{"msg size (B)", "zero-copy (µs)", "copy (µs)", "delta (ns)"},
	}
	for _, size := range []int{512, 2048, 16384, 65536} {
		opts := DefaultEchoOpts()
		opts.MsgSize = size
		opts.Rounds = 400
		opts.Warmup = 40
		zc, err := RunEcho(SysCatnipTCP(), opts)
		if err != nil {
			return nil, err
		}
		cp, err := RunEcho(SysCatnipForceCopy(), opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", size), Micros(zc.Avg), Micros(cp.Avg),
			fmt.Sprintf("%d", (cp.Avg-zc.Avg).Nanoseconds()))
	}
	return t, nil
}

// AblationRunToCompletion compares single-core run-to-completion Catnip
// against the identical stack with a Shenango-style 2-core split,
// isolating the architecture from stack quality.
func AblationRunToCompletion() (*Table, error) {
	t := &Table{
		Title:  "Ablation: run-to-completion vs 2-core split (identical TCP stack, 64B echo)",
		Header: []string{"architecture", "avg RTT (µs)"},
	}
	opts := DefaultEchoOpts()
	opts.Rounds = 1000
	rtc, err := RunEcho(SysCatnipTCP(), opts)
	if err != nil {
		return nil, err
	}
	split, err := RunEcho(SysSplitCore(), opts)
	if err != nil {
		return nil, err
	}
	t.AddRow("run-to-completion (1 core)", Micros(rtc.Avg))
	t.AddRow("IOKernel split (2 cores)", Micros(split.Avg))
	return t, nil
}

// AblationPolling compares Catnap's polling against the standard epoll
// path on the identical kernel stack (the paper's Catnap-vs-Linux gap).
func AblationPolling() (*Table, error) {
	t := &Table{
		Title:  "Ablation: polling vs epoll on the kernel path (64B echo)",
		Header: []string{"wait strategy", "avg RTT (µs)", "host CPU per round (µs)"},
	}
	opts := DefaultEchoOpts()
	opts.Rounds = 1000
	for _, sys := range []System{SysLinux(baseline.EnvNative), SysCatnap(baseline.EnvNative)} {
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		name := "epoll (sleeps)"
		if sys.Name == "Catnap" {
			name = "polling (burns a core)"
		}
		t.AddRow(name, Micros(row.Avg), Micros(row.OSTimePerIO*4))
	}
	return t, nil
}

// AblationQPMux compares Catmint's multiplexed single queue pair against a
// per-connection-QP cost model (the design the paper rejects as
// unaffordable, §6.2).
func AblationQPMux() (*Table, error) {
	t := &Table{
		Title:  "Ablation: multiplexed QP vs per-connection QPs (Catmint, 64B echo)",
		Header: []string{"design", "avg RTT (µs)"},
	}
	opts := DefaultEchoOpts()
	opts.Rounds = 1000
	mux, err := RunEcho(SysCatmint(0), opts)
	if err != nil {
		return nil, err
	}
	perConn, err := RunEcho(SysTxnStoreRDMA(), opts) // per-conn QP cost model
	if err != nil {
		return nil, err
	}
	t.AddRow("one QP per device (multiplexed)", Micros(mux.Avg))
	t.AddRow("one QP per connection", Micros(perConn.Avg))
	return t, nil
}

// AblationCreditDepth sweeps Catmint's receive-credit depth on a 64 B echo
// and counts the credit stalls on both stacks. A closed-loop echo keeps one
// message in flight, which never exhausts even two credits: every depth
// shows the same RTT and no stalls. Showing the stalls a shallow depth
// costs takes an echo with several messages in flight.
func AblationCreditDepth() (*Table, error) {
	t := &Table{
		Title:  "Ablation: Catmint receive-credit depth (64B echo, 1000 rounds)",
		Header: []string{"recv depth", "avg RTT (µs)", "credit stalls"},
	}
	for _, depth := range []int{2, 8, 64} {
		depth := depth
		var libs []*catmint.LibOS
		sys := System{Name: fmt.Sprintf("depth %d", depth), Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
			cfg := catmint.DefaultConfig(tb.Book)
			cfg.RecvDepth = depth
			cfg.RefillThreshold = depth / 2
			l := catmint.New(n, tb.newRDMA(n, LinkRDMA()), cfg)
			l.RegisterAddr(wireAddr(ip))
			libs = append(libs, l)
			return l
		}}
		opts := DefaultEchoOpts()
		opts.Rounds = 1000
		row, err := RunEcho(sys, opts)
		if err != nil {
			return nil, err
		}
		var stalls uint64
		for _, l := range libs {
			stalls += l.Stats().CreditStalls
		}
		t.AddRow(sys.Name, Micros(row.Avg), fmt.Sprint(stalls))
	}
	return t, nil
}

// Ablations runs every ablation.
func Ablations() ([]*Table, error) {
	var out []*Table
	for _, f := range []func() (*Table, error){
		AblationZeroCopy,
		AblationRunToCompletion,
		AblationPolling,
		AblationQPMux,
		AblationCreditDepth,
		AblationDelayedAck,
		Persephone,
	} {
		tab, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}

// Persephone regenerates the companion paper's headline (paper §3.2, [15]):
// request-type-aware core reservation protects short-request tail latency
// under highly dispersed service times.
func Persephone() (*Table, error) {
	t := &Table{
		Title:  "Companion (Perséphone [15]): short-request p999 under 1000x service-time dispersion (8 workers)",
		Note:   "99.5% 0.5µs / 0.5% 500µs; DARC reserves cores for shorts at the cost of long-request latency",
		Header: []string{"load", "policy", "short p999 (µs)", "long p999 (µs)", "short tail gain"},
	}
	for _, load := range []float64{0.80, 0.90} {
		w := reqsched.HighDispersion(60000, load, 8)
		fcfs := reqsched.Run(7, 8, reqsched.FCFS{}, w, 1<<20)
		darc := reqsched.Run(7, 8, reqsched.DARC{Reserved: 2}, w, 1<<20)
		fp, dp := tail999(fcfs.ShortLats), tail999(darc.ShortLats)
		t.AddRow(fmt.Sprintf("%.0f%%", load*100), "c-FCFS", Micros(fp), Micros(tail999(fcfs.LongLats)), "1.0x")
		t.AddRow(fmt.Sprintf("%.0f%%", load*100), "DARC(2)", Micros(dp), Micros(tail999(darc.LongLats)),
			fmt.Sprintf("%.0fx", float64(fp)/float64(dp)))
	}
	return t, nil
}

// tail999 returns the 99.9th percentile.
func tail999(lats []time.Duration) time.Duration {
	h := &Hist{}
	h.AddAll(lats)
	return h.Percentile(99.9)
}

// AblationDelayedAck compares immediate and delayed pure acknowledgments
// on a 64 B echo: µs-scale RTTs cannot absorb delayed acks, which is why
// Catnip acks immediately (every deferred ack costs the full delay on the
// echo's critical path when traffic is sparse).
func AblationDelayedAck() (*Table, error) {
	t := &Table{
		Title:  "Ablation: immediate vs delayed pure acks (Catnip TCP, 64B echo)",
		Header: []string{"ack policy", "avg RTT (µs)"},
	}
	opts := DefaultEchoOpts()
	opts.Rounds = 500
	imm, err := RunEcho(SysCatnipTCP(), opts)
	if err != nil {
		return nil, err
	}
	delayedSys := System{Name: "Catnip (delayed ack)", Build: buildCatnip(func(ip wire.IPAddr) catnip.Config {
		cfg := catnip.DefaultConfig(ip)
		cfg.DelayedAck = 50 * time.Microsecond
		return cfg
	})}
	del, err := RunEcho(delayedSys, opts)
	if err != nil {
		return nil, err
	}
	t.AddRow("immediate (Catnip default)", Micros(imm.Avg))
	t.AddRow("delayed 50µs", Micros(del.Avg))
	return t, nil
}
