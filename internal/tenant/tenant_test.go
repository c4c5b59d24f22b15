package tenant_test

import (
	"errors"
	"testing"
	"time"

	"demikernel/internal/catmem"
	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
	"demikernel/internal/tenant"
)

// rig is a single-host catmem backend with two tenants sharing it.
type rig struct {
	eng  *sim.Engine
	lib  *catmem.LibOS
	treg *tenant.Registry
	tel  *telemetry.Registry
	ta   *tenant.Tenant
	tb   *tenant.Tenant
	va   member
	vb   member
}

// member is one tenant's handle on the shared libOS and its heap region.
type member struct {
	*core.Handle
	th *memory.TenantHeap
}

func join(t *tenant.Tenant, lib *catmem.LibOS) member {
	h := t.Join(lib)
	return member{h, h.Heap().Tenant(t.ID())}
}

func newRig(limA, limB tenant.Limits) *rig {
	eng := sim.NewEngine(1)
	region := catmem.NewRegion(eng)
	lib := region.New(eng.NewNode("host"))
	treg := tenant.NewRegistry()
	treg.AttachTable(lib.Tokens())
	tel := telemetry.NewRegistry("tenants")
	ta := treg.New(1, "victim", limA)
	tb := treg.New(2, "attacker", limB)
	ta.Publish(tel)
	tb.Publish(tel)
	return &rig{
		eng: eng, lib: lib, treg: treg, tel: tel,
		ta: ta, tb: tb,
		va: join(ta, lib), vb: join(tb, lib),
	}
}

// run executes body as the host node's main and drives it to completion.
func (r *rig) run(body func()) {
	r.eng.Spawn(r.lib.Node(), body)
	r.eng.Run()
}

// mintCompleted mints a completed push qtoken owned by tenant v: a bounded
// in-memory queue accepts the push immediately, so the token is redeemable
// the moment Push returns.
func mintCompleted(t *testing.T, v member) (core.QDesc, core.QToken) {
	t.Helper()
	qd, err := v.Queue()
	if err != nil {
		t.Fatalf("queue: %v", err)
	}
	buf := v.th.CopyFrom([]byte("payload"))
	qt, err := v.Push(qd, core.SGA(buf))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	return qd, qt
}

// drain pops the pushed payload back out and frees it, then closes qd.
func drain(t *testing.T, v member, qd core.QDesc) {
	t.Helper()
	pqt, err := v.Pop(qd)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	ev, err := v.Wait(pqt)
	if err != nil {
		t.Fatalf("pop wait: %v", err)
	}
	for _, b := range ev.SGA.Segs {
		if err := v.th.TryFree(b); err != nil {
			t.Fatalf("free popped buf: %v", err)
		}
	}
	if err := v.Close(qd); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCrossTenantRedemption is the capability property, table-driven over
// every redemption path: a qtoken minted by tenant A is rejected for
// tenant B with ErrBadQToken — indistinguishable from an unknown token —
// without consuming A's completion, and the attempt is counted.
func TestCrossTenantRedemption(t *testing.T) {
	cases := []struct {
		name   string
		redeem func(v member, qt core.QToken) error
	}{
		{"Wait", func(v member, qt core.QToken) error {
			_, err := v.Wait(qt)
			return err
		}},
		{"WaitAny", func(v member, qt core.QToken) error {
			_, _, err := v.WaitAny([]core.QToken{qt}, time.Second)
			return err
		}},
		{"WaitAll", func(v member, qt core.QToken) error {
			_, err := v.WaitAll([]core.QToken{qt}, time.Second)
			return err
		}},
		{"TryTake", func(v member, qt core.QToken) error {
			_, _, err := v.TryTake(qt)
			return err
		}},
	}
	r := newRig(tenant.Limits{}, tenant.Limits{})
	r.run(func() {
		for i, tc := range cases {
			qd, qt := mintCompleted(t, r.va)
			if err := tc.redeem(r.vb, qt); !errors.Is(err, core.ErrBadQToken) {
				t.Errorf("%s: foreign redemption got %v, want ErrBadQToken", tc.name, err)
			}
			// The victim's completion survived the attempt.
			if ev, err := r.va.Wait(qt); err != nil || ev.Err != nil {
				t.Errorf("%s: victim redemption after attack: %v %v", tc.name, err, ev.Err)
			}
			drain(t, r.va, qd)
			if got := r.lib.Tokens().Forgeries(); got != uint64(i+1) {
				t.Errorf("%s: forgeries = %d, want %d", tc.name, got, i+1)
			}
		}
	})
	if got := r.tel.Counter("tenant.2.forgery_attempts").Value(); got != uint64(len(cases)) {
		t.Errorf("attacker forgery_attempts = %d, want %d", got, len(cases))
	}
	if got := r.tel.Counter("tenant.1.forgery_attempts").Value(); got != 0 {
		t.Errorf("victim forgery_attempts = %d, want 0", got)
	}
	if got := r.tel.Counter("tenant.2.bad_token_waits").Value(); got != uint64(len(cases)) {
		t.Errorf("attacker bad_token_waits = %d, want %d", got, len(cases))
	}
}

// TestForeignDescriptorRejected: a leaked or guessed foreign qd is not a
// capability — every call on it fails with ErrBadQDesc before the libcall.
func TestForeignDescriptorRejected(t *testing.T) {
	r := newRig(tenant.Limits{}, tenant.Limits{})
	r.run(func() {
		qd, qt := mintCompleted(t, r.va)
		if _, err := r.vb.Pop(qd); !errors.Is(err, core.ErrBadQDesc) {
			t.Errorf("foreign Pop: got %v, want ErrBadQDesc", err)
		}
		if _, err := r.vb.Push(qd, core.SGArray{}); !errors.Is(err, core.ErrBadQDesc) {
			t.Errorf("foreign Push: got %v, want ErrBadQDesc", err)
		}
		if err := r.vb.Close(qd); !errors.Is(err, core.ErrBadQDesc) {
			t.Errorf("foreign Close: got %v, want ErrBadQDesc", err)
		}
		if _, err := r.va.Wait(qt); err != nil {
			t.Fatalf("victim wait: %v", err)
		}
		drain(t, r.va, qd)
	})
}

// TestFlowQuotaChurn: connect/close churn never leaks a flow-table charge,
// and the cap rejects exactly the connection over it.
func TestFlowQuotaChurn(t *testing.T) {
	const maxFlows = 2
	r := newRig(tenant.Limits{MaxFlows: maxFlows}, tenant.Limits{})
	r.run(func() {
		// Host-side listener (trusted infrastructure, no tenant).
		lqd, err := r.lib.Socket(core.SockStream)
		if err != nil {
			t.Fatalf("listener socket: %v", err)
		}
		if err := r.lib.Bind(lqd, core.Addr{Port: 9000}); err != nil {
			t.Fatalf("bind: %v", err)
		}
		if err := r.lib.Listen(lqd, 64); err != nil {
			t.Fatalf("listen: %v", err)
		}
		dial := func() (core.QDesc, error) {
			qd, err := r.va.Socket(core.SockStream)
			if err != nil {
				return core.InvalidQD, err
			}
			qt, err := r.va.Connect(qd, core.Addr{Port: 9000})
			if err != nil {
				r.va.Close(qd)
				return core.InvalidQD, err
			}
			if ev, werr := r.va.Wait(qt); werr != nil || ev.Err != nil {
				t.Fatalf("connect wait: %v %v", werr, ev.Err)
			}
			return qd, nil
		}
		// Churn: connect and close far more times than the cap. Any charge
		// leak would trip the quota mid-loop.
		for i := 0; i < 10*maxFlows; i++ {
			qd, err := dial()
			if err != nil {
				t.Fatalf("churn iteration %d: %v", i, err)
			}
			if err := r.va.Close(qd); err != nil {
				t.Fatalf("churn close %d: %v", i, err)
			}
		}
		if got := r.ta.Flows(); got != 0 {
			t.Fatalf("flows after churn = %d, want 0", got)
		}
		// Fill to the cap, then one more must be rejected.
		held := make([]core.QDesc, 0, maxFlows)
		for i := 0; i < maxFlows; i++ {
			qd, err := dial()
			if err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
			held = append(held, qd)
		}
		if _, err := dial(); !errors.Is(err, core.ErrTenantQuota) {
			t.Fatalf("over-cap connect: got %v, want ErrTenantQuota", err)
		}
		if got := r.ta.Flows(); got != maxFlows {
			t.Fatalf("flows after the rejected connect = %d, want %d", got, maxFlows)
		}
		// Releasing one flow re-opens the cap.
		if err := r.va.Close(held[0]); err != nil {
			t.Fatalf("release: %v", err)
		}
		qd, err := dial()
		if err != nil {
			t.Fatalf("connect after release: %v", err)
		}
		for _, h := range append(held[1:], qd) {
			r.va.Close(h)
		}
	})
	if r.tel.Counter("tenant.1.quota_rejects.flows").Value() == 0 {
		t.Error("flow quota rejection not counted")
	}
}

// TestTokenQuota: the in-flight qtoken cap rejects the mint over it and is
// credited back at redemption.
func TestTokenQuota(t *testing.T) {
	r := newRig(tenant.Limits{MaxTokens: 1}, tenant.Limits{})
	r.run(func() {
		qd, err := r.va.Queue()
		if err != nil {
			t.Fatalf("queue: %v", err)
		}
		buf := r.va.th.CopyFrom([]byte("x"))
		qt, err := r.va.Push(qd, core.SGA(buf))
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		if _, err := r.va.Pop(qd); !errors.Is(err, core.ErrTenantQuota) {
			t.Fatalf("second in-flight op: got %v, want ErrTenantQuota", err)
		}
		if got := r.ta.InFlight(); got != 1 {
			t.Fatalf("in-flight after the rejected mint = %d, want 1", got)
		}
		if _, err := r.va.Wait(qt); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if got := r.ta.InFlight(); got != 0 {
			t.Fatalf("in-flight after redemption = %d, want 0", got)
		}
		drain(t, r.va, qd) // the pop works once the quota is credited back
	})
	if r.tel.Counter("tenant.1.quota_rejects.tokens").Value() != 1 {
		t.Error("token quota rejection not counted")
	}
}

// TestPushRateLimit: the push-rate bucket rejects a burst past its depth,
// and the rejected caller keeps buffer ownership (complete-or-error).
func TestPushRateLimit(t *testing.T) {
	r := newRig(tenant.Limits{PushRate: 1, PushBurst: 1}, tenant.Limits{})
	r.run(func() {
		qd, err := r.va.Queue()
		if err != nil {
			t.Fatalf("queue: %v", err)
		}
		buf1 := r.va.th.CopyFrom([]byte("a"))
		qt, err := r.va.Push(qd, core.SGA(buf1))
		if err != nil {
			t.Fatalf("first push: %v", err)
		}
		buf2 := r.va.th.CopyFrom([]byte("b"))
		if _, err := r.va.Push(qd, core.SGA(buf2)); !errors.Is(err, core.ErrTenantQuota) {
			t.Fatalf("burst push: got %v, want ErrTenantQuota", err)
		}
		// Rejected at the call: ownership stayed with the caller.
		if err := r.va.th.TryFree(buf2); err != nil {
			t.Fatalf("free rejected-push buffer: %v", err)
		}
		if _, err := r.va.Wait(qt); err != nil {
			t.Fatalf("wait: %v", err)
		}
		drain(t, r.va, qd)
	})
	if r.tel.Counter("tenant.1.quota_rejects.push_rate").Value() != 1 {
		t.Error("push-rate rejection not counted")
	}
	if used := r.va.th.Used(); used != 0 {
		t.Errorf("tenant heap bytes leaked: %d", used)
	}
}

// TestRefusedPushSpendsNoCredit: push-rate credit is spent only by a push
// that is issued. An empty push and a push the queue refuses (a stream
// socket with no connection) cost none, so the one push the bucket holds
// still goes through after them.
func TestRefusedPushSpendsNoCredit(t *testing.T) {
	r := newRig(tenant.Limits{PushRate: 1, PushBurst: 1}, tenant.Limits{})
	r.run(func() {
		sock, err := r.va.Socket(core.SockStream)
		if err != nil {
			t.Fatalf("socket: %v", err)
		}
		for i := 0; i < 2; i++ {
			buf := r.va.th.CopyFrom([]byte("x"))
			if _, err := r.va.Push(sock, core.SGA(buf)); !errors.Is(err, core.ErrNotBound) {
				t.Errorf("push %d on an unconnected socket: got %v, want ErrNotBound", i, err)
			}
			if err := r.va.th.TryFree(buf); err != nil {
				t.Fatalf("free refused-push buffer: %v", err)
			}
		}
		qd, err := r.va.Queue()
		if err != nil {
			t.Fatalf("queue: %v", err)
		}
		if _, err := r.va.Push(qd, core.SGArray{}); !errors.Is(err, core.ErrEmptySGA) {
			t.Errorf("empty push: got %v, want ErrEmptySGA", err)
		}
		qt, err := r.va.Push(qd, core.SGA(r.va.th.CopyFrom([]byte("a"))))
		if err != nil {
			t.Fatalf("push with the bucket's one credit: %v", err)
		}
		if _, err := r.va.Wait(qt); err != nil {
			t.Fatalf("wait: %v", err)
		}
		drain(t, r.va, qd)
		if err := r.va.Close(sock); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
	if got := r.tel.Counter("tenant.1.quota_rejects.push_rate").Value(); got != 0 {
		t.Errorf("push-rate rejections = %d, want 0", got)
	}
	if got := r.ta.InFlight(); got != 0 {
		t.Errorf("in-flight after the refused pushes = %d, want 0", got)
	}
}

// TestHeapQuotaIsolation: one tenant's alloc flood exhausts its own quota
// (ErrNoMem) while the other tenant keeps allocating; frees restore
// headroom; double free and foreign free are errors, not panics.
func TestHeapQuotaIsolation(t *testing.T) {
	const quota = 16 << 10
	r := newRig(tenant.Limits{HeapBytes: quota}, tenant.Limits{HeapBytes: quota})
	thA, thB := r.va.th, r.vb.th

	// B floods its region to exhaustion.
	var held []*memory.Buf
	for {
		b, err := thB.TryAlloc(1024)
		if err != nil {
			if !errors.Is(err, memory.ErrNoMem) {
				t.Fatalf("flood alloc: got %v, want ErrNoMem", err)
			}
			break
		}
		held = append(held, b)
		if len(held) > quota/1024+1 {
			t.Fatalf("quota never enforced after %d allocs", len(held))
		}
	}
	// The victim allocates unimpeded.
	vb, err := thA.TryAlloc(1024)
	if err != nil {
		t.Fatalf("victim alloc during flood: %v", err)
	}
	if got := thB.Stats().Rejects; got == 0 {
		t.Error("flood rejection not accounted")
	}

	// Cross-tenant free is rejected without touching the buffer.
	if err := thB.TryFree(vb); !errors.Is(err, memory.ErrForeignBuf) {
		t.Fatalf("foreign free: got %v, want ErrForeignBuf", err)
	}
	if err := thA.TryFree(vb); err != nil {
		t.Fatalf("owner free: %v", err)
	}
	// Double free through the capability is an error, not a panic.
	if err := thA.TryFree(vb); !errors.Is(err, memory.ErrDoubleFree) {
		t.Fatalf("double free: got %v, want ErrDoubleFree", err)
	}

	// Frees restore headroom: B can allocate again.
	if err := thB.TryFree(held[0]); err != nil {
		t.Fatalf("flood free: %v", err)
	}
	if _, err := thB.TryAlloc(1024); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}
