package bench

// The adversarial-tenant soak (the multi-tenant isolation gate): three
// tenants share one Catnip stack — a well-behaved echo victim, a
// well-behaved KV victim, and a hostile tenant that floods the flow table,
// forges qtokens against the victims' table, abuses its heap quota, double-
// and foreign-frees buffers, and bursts past its push-rate cap. Each seed
// runs a solo world (the victims alone) and a contended one (the attacker
// beside them). Beside the checks every soak passes (soak.go), the victims lose
// nothing and their p99 under attack stays within TenantP99Bound of the
// solo world's (DESIGN.md §12).

import (
	"bytes"
	"errors"
	"fmt"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/tenant"
	"demikernel/internal/wire"
)

// TenantP99Bound is the stated interference bound: the victims' p99 echo
// latency under a co-resident hostile tenant must stay within this factor
// of the same-seed solo baseline. Stated (and explained) in DESIGN.md §12.
const TenantP99Bound = 3.0

// The victims' workload, sized so every attack class fires many times while
// staying fast enough for -race CI.
const (
	tenantRounds = 2000 // victim echo rounds, one latency sample each
	tenantKVOps  = 500  // victim KV SET+GET pairs, spread over the rounds
)

// The attack classes, in the order the demi-bench table reports their
// rejections.
const (
	attackFlood       = iota // connect past the flow quota
	attackForgery            // redeem a victim's or a guessed qtoken
	attackAlloc              // allocate past the heap quota
	attackDoubleFree         // free a buffer twice
	attackForeignFree        // free a victim's buffer
	attackRate               // push past the rate bucket
	nAttacks
)

// attackClasses is the attack table: each class's name and the sentinel
// that must reject it. The soak fails on any other outcome, and if a class
// is never rejected at all.
var attackClasses = [nAttacks]struct {
	name string
	want error
}{
	attackFlood:       {"connect flood", core.ErrTenantQuota},
	attackForgery:     {"qtoken forgery", core.ErrBadQToken},
	attackAlloc:       {"alloc abuse", memory.ErrNoMem},
	attackDoubleFree:  {"double free", memory.ErrDoubleFree},
	attackForeignFree: {"foreign free", memory.ErrForeignBuf},
	attackRate:        {"push-rate burst", core.ErrTenantQuota},
}

// tenantSoak is the adversarial-tenant scenario; CI runs its seeds under
// -race.
var tenantSoak = &soakScenario{
	name:   "tenant",
	seeds:  []uint64{41, 42, 43},
	run:    runTenant,
	title:  "Adversarial-tenant soak: hostile tenant co-resident with echo/kv victims",
	note:   fmt.Sprintf("victim p99 bound %.1fx solo; every run twice per seed; 'replay' requires byte-identical telemetry", TenantP99Bound),
	header: []string{"seed", "victim ok/err", "kv ok/err", "attacks rejected (flood/forge/alloc/dfree/ffree/rate)", "solo p99", "attacked p99", "replay"},
}

// TenantChaos is the demi-bench runner.
func TenantChaos() ([]*Table, error) { return tenantSoak.table() }

// tenantWorld is one tenant world: what the soak driver checks, and the
// victims' and attacker's counts.
type tenantWorld struct {
	soakWorld
	victim  *echoClient
	kvOK    int
	rejects [nAttacks]int
	hist    Hist // victim echo round latencies
}

// runTenant runs the solo world and the contended world on one seed.
func runTenant(seed uint64) (*soakRun, error) {
	solo, err := runTenantWorld(seed, false)
	cont, cerr := runTenantWorld(seed, true)
	if err := errors.Join(err, cerr); err != nil {
		return nil, err
	}
	// The victims must not lose a single operation to the attacker.
	if v := cont.victim; v.errs != 0 || v.ok != tenantRounds {
		return nil, fmt.Errorf("victim lost rounds under attack: %d ok, %d errs of %d", v.ok, v.errs, tenantRounds)
	}
	soloP99, contP99 := solo.hist.P99(), cont.hist.P99()
	if float64(contP99) > TenantP99Bound*float64(soloP99) {
		return nil, fmt.Errorf("victim p99 %v exceeds %.1fx solo baseline %v", contP99, TenantP99Bound, soloP99)
	}
	for c, n := range cont.rejects {
		cont.attacks = append(cont.attacks, attackCount{attackClasses[c].name, n})
	}
	r := cont.rejects
	return &soakRun{worlds: []*soakWorld{&solo.soakWorld, &cont.soakWorld}, row: []string{
		fmt.Sprintf("%d/%d", cont.victim.ok, cont.victim.errs),
		fmt.Sprintf("%d/0", cont.kvOK), // a KV victim error fails the soak
		fmt.Sprintf("%d/%d/%d/%d/%d/%d", r[0], r[1], r[2], r[3], r[4], r[5]),
		fmt.Sprint(soloP99), fmt.Sprint(contP99),
	}}, nil
}

// runTenantWorld runs one world: the two victim tenants (echo and KV) on a
// shared Catnip stack, and the hostile tenant beside them when attack is
// set. The victims make the same calls either way, so the solo world is a
// true baseline.
func runTenantWorld(seed uint64, attack bool) (*tenantWorld, error) {
	tb := NewTestbed(seed, SwitchEth())
	echoSrv := tb.NewStack(SysCatnipTCP(), "mt-echo-srv", wire.IPAddr{10, 40, 0, 1})
	kvSrv := tb.NewStack(catnipCattreeTCP(), "mt-kv-srv", wire.IPAddr{10, 40, 0, 2})
	host := tb.NewStack(SysCatnipTCP(), "mt-host", wire.IPAddr{10, 40, 0, 3})
	tb.SeedARP()
	netos := host.OS.(demi.NetOS)
	label := "solo"
	if attack {
		label = "contended"
	}
	w := &tenantWorld{soakWorld: soakWorld{label: label, world: world{title: "tenant " + label, eng: tb.Eng,
		untilIdle: true, stacks: []*Stack{host, echoSrv, kvSrv}, noDevices: true}}}

	// The victims get 4x the attacker's scheduler weight; the attacker gets
	// tight caps so every abuse lands on a quota edge.
	treg := tenant.NewRegistry()
	treg.AttachTable(netos.Tokens())
	victim := treg.New(1, "echo-victim", tenant.Limits{Weight: 4})
	kvVictim := treg.New(2, "kv-victim", tenant.Limits{Weight: 4})
	hostile := treg.New(3, "attacker", tenant.Limits{Weight: 1, HeapBytes: 64 << 10, MaxFlows: 4, MaxTokens: 16, PushRate: 200000, PushBurst: 4})
	w.tenants, w.tenantHeap = []*tenant.Tenant{victim, kvVictim, hostile}, host.OS.Heap()
	for _, tn := range w.tenants {
		tn.Publish(stackTelemetry(host.OS))
	}
	vv, kvv, av := tenant.NewView(victim, netos), tenant.NewView(kvVictim, netos), tenant.NewView(hostile, netos)
	if !attack {
		av = nil
	}

	// Servers (trusted hosts, host principal); the shared host's single
	// node main interleaves all three tenants.
	echoAddr := core.Addr{IP: echoSrv.IP, Port: 7400}
	kvAddr := core.Addr{IP: kvSrv.IP, Port: 6380}
	var kvStats kv.ServerStats
	w.servers = []proc{
		{echoSrv, func() error { return echo.Server(echoSrv.OS, echo.ServerConfig{Addr: echoAddr}) }},
		{kvSrv, func() error {
			return kv.Server(kvSrv.OS, kv.ServerConfig{Addr: kvAddr, AOFName: soakAOF}, &kvStats)
		}},
	}
	w.clients = []proc{{host, func() error { return w.main(host.Node, vv, kvv, av, echoAddr, kvAddr) }}}
	return w, w.run()
}

// main is the shared host's node main: victim echo rounds with a latency
// sample each, KV victim ops spread among them and, when av is set, one
// hostile action after every round.
func (w *tenantWorld) main(node *sim.Node, vv, kvv, av *tenant.View, echoAddr, kvAddr core.Addr) error {
	th := vv.TenantHeap() // a free the region refuses fails the round
	w.victim = &echoClient{l: vv, server: echoAddr, alloc: th.TryCopyFrom, free: th.TryFree}
	if err := w.victim.connect(); err != nil {
		return fmt.Errorf("victim dial: %w", err)
	}
	// A canary buffer the attacker will try to free out from under the
	// victim (the foreign-free class); the victim frees it on the way out.
	canary := th.CopyFrom([]byte("victim canary"))
	defer th.TryFree(canary)
	kvCl, err := dialKV(kvv, kvAddr)
	if err != nil {
		return fmt.Errorf("kv victim dial: %w", err)
	}
	// The attacker fills its flow quota (the held connections also keep
	// four extra TCP coroutine sets competing for the scheduler) and keeps
	// one for its own traffic.
	var atk *attacker
	if av != nil {
		atk = &attacker{v: av, addr: echoAddr, rejects: &w.rejects, canary: canary}
		for i := 0; i < av.Tenant().Limits().MaxFlows; i++ {
			qd, err := dial(av, echoAddr)
			if err != nil {
				return fmt.Errorf("attacker dial %d: %w", i, err)
			}
			atk.held = append(atk.held, qd)
		}
	}

	for i := 0; i < tenantRounds; i++ {
		// Every 8th round the attacker forges against the victim's live pop
		// token mid-round (the strongest forgery: the op exists and another
		// tenant owns it).
		var forge func(core.QToken) error
		if atk != nil && i%8 == 1 {
			forge = atk.forge
		}
		start := node.Now()
		err := w.victim.round(i, forge)
		w.hist.Add(node.Now().Sub(start))
		if err != nil {
			return err
		}
		if i%(tenantRounds/tenantKVOps+1) == 0 {
			if err := w.kvOp(kvCl); err != nil {
				return err
			}
		}
		if atk != nil {
			if err := atk.step(i); err != nil {
				return err
			}
		}
	}

	// Teardown: the victims release everything, and the attacker's exit
	// must release every flow charge, like any tenant's.
	kvCl.Close()
	err = vv.Close(w.victim.conn)
	for j := 0; atk != nil && j < len(atk.held); j++ {
		err = errors.Join(err, av.Close(atk.held[j]))
	}
	return err
}

// kvOp is one victim KV SET and a GET that must return it. With no fault
// injection here, any error fails the soak.
func (w *tenantWorld) kvOp(cl *kv.Client) error {
	k := w.kvOK % kvKeys
	val := kvValue(k, w.kvOK)
	if err := cl.Set(kvKey(k), val); err != nil {
		return fmt.Errorf("kv set: %w", err)
	}
	got, err := cl.Get(kvKey(k))
	if err != nil {
		return fmt.Errorf("kv get: %w", err)
	}
	if !bytes.Equal(got, val) {
		return fmt.Errorf("kv key %d under attack: %w", k, errCorrupted)
	}
	w.kvOK++
	return nil
}

// attacker is the hostile tenant: a full flow table, the first of whose
// connections carries its own traffic, and a scratch heap region.
type attacker struct {
	v       *tenant.View
	addr    core.Addr
	rejects *[nAttacks]int
	held    []core.QDesc // connections pinning the flow quota
	round   int          // its own echo round counter
	canary  *memory.Buf  // victim buffer it keeps trying to free
}

// expect counts err as a rejection of class, or fails the soak if it is not
// the class's sentinel.
func (a *attacker) expect(class int, err error) error {
	c := attackClasses[class]
	if !errors.Is(err, c.want) {
		return fmt.Errorf("%w: %s attack: got %v, want %v", errIsolation, c.name, err, c.want)
	}
	a.rejects[class]++
	return nil
}

// forge tries to redeem the victim's live qtoken under the attacker's
// principal, and its two neighbours. Each must be rejected without
// consuming the op.
func (a *attacker) forge(victimQT core.QToken) error {
	for _, qt := range []core.QToken{victimQT, victimQT + 1, victimQT - 1} {
		_, err := a.v.Wait(qt)
		if err := a.expect(attackForgery, err); err != nil {
			return err
		}
	}
	return nil
}

// step runs one hostile action, cycling through the attack classes.
func (a *attacker) step(i int) error {
	th := a.v.TenantHeap()
	switch i % 5 {
	case 0: // connect flood: the flow table is pinned full
		qd, err := a.v.Socket(core.SockStream)
		if err != nil {
			return err
		}
		qt, err := a.v.Connect(qd, a.addr)
		if err == nil {
			a.v.Wait(qt) // the quota failed: settle the stray connect's token
		}
		return errors.Join(a.expect(attackFlood, err), a.v.Close(qd))
	case 1: // alloc abuse: hoard until the region quota rejects, then release
		var hoard []*memory.Buf
		b, err := th.TryAlloc(4096)
		for ; err == nil; b, err = th.TryAlloc(4096) {
			if hoard = append(hoard, b); len(hoard) > 1<<12 {
				break // the quota never rejected: err is nil, and expect says so
			}
		}
		err = a.expect(attackAlloc, err)
		for _, b := range hoard {
			err = errors.Join(err, th.TryFree(b))
		}
		return err
	case 2: // double free, then a free of the victim's canary
		b, err := th.TryAlloc(64)
		if err != nil {
			return fmt.Errorf("attacker alloc: %w", err)
		}
		if err := th.TryFree(b); err != nil {
			return err
		}
		return errors.Join(a.expect(attackDoubleFree, th.TryFree(b)), a.expect(attackForeignFree, th.TryFree(a.canary)))
	case 3: // push-rate burst: pushes past the bucket depth must be rejected
		var accepted []core.QToken
		var sent []*memory.Buf
		for k := 0; k < 8; k++ {
			buf, err := th.TryCopyFrom(soakPattern(a.round))
			if err != nil {
				return fmt.Errorf("attacker burst alloc: %w", err)
			}
			qt, perr := a.v.Push(a.held[0], core.SGA(buf))
			if perr != nil {
				// Complete-or-error: the rejected caller keeps the buffer.
				if err := errors.Join(th.TryFree(buf), a.expect(attackRate, perr)); err != nil {
					return err
				}
				continue
			}
			accepted = append(accepted, qt)
			sent = append(sent, buf)
		}
		// Settle its own traffic: wait out the pushes (the acked buffers are
		// its own again), then pop the echoes.
		for j, qt := range accepted {
			_, err := await(a.v, qt)
			if err = errors.Join(err, th.TryFree(sent[j])); err != nil {
				return fmt.Errorf("attacker push: %w", err)
			}
		}
		for got := 0; got < len(accepted)*soakMsgSize; {
			pqt, err := a.v.Pop(a.held[0])
			if err != nil {
				return fmt.Errorf("attacker pop: %w", err)
			}
			ev, err := await(a.v, pqt)
			if err != nil {
				return fmt.Errorf("attacker pop: %w", err)
			}
			got += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
		a.round++
		return nil
	default: // token scan: guessed tokens redeem nothing
		for g := uint64(1); g <= 3; g++ {
			_, _, err := a.v.TryTake(core.QToken(uint64(a.round*31) + g*1009))
			if err := a.expect(attackForgery, err); err != nil {
				return err
			}
		}
		return nil
	}
}
