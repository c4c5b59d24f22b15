package sched

import "testing"

// yielder counts its polls and always yields (an infinitely greedy
// coroutine — the scheduling pattern of a flooding tenant).
type yielder struct{ polls int }

func (y *yielder) Poll(ctx *Context) Poll { y.polls++; return Yield }

// TestWFQSharesFollowWeights pins the weighted-fair invariant: two
// always-ready tenants split poll cycles in proportion to their weights,
// regardless of how many coroutines each fields.
func TestWFQSharesFollowWeights(t *testing.T) {
	s := New()
	s.SetTenantWeight(1, 3)
	s.SetTenantWeight(2, 1)
	victim := &yielder{}
	s.SpawnTenant(Background, 1, victim)
	// The attacker fields 8 greedy coroutines to the victim's one.
	attackers := make([]*yielder, 8)
	for i := range attackers {
		attackers[i] = &yielder{}
		s.SpawnTenant(Background, 2, attackers[i])
	}
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		if !s.RunOne() {
			t.Fatal("scheduler went idle with ready coroutines")
		}
	}
	attackerPolls := 0
	for _, a := range attackers {
		attackerPolls += a.polls
	}
	// Weight 3:1 → victim ~3000, attackers ~1000 combined.
	if victim.polls < 2900 || victim.polls > 3100 {
		t.Errorf("victim polls = %d, want ~3000 of %d (weight 3 of 4)", victim.polls, rounds)
	}
	if attackerPolls != rounds-victim.polls {
		t.Errorf("attacker polls = %d, victim = %d, don't sum to %d", attackerPolls, victim.polls, rounds)
	}
	if got := s.TenantPolls(1); got != uint64(victim.polls) {
		t.Errorf("TenantPolls(1) = %d, want %d", got, victim.polls)
	}
}

// TestWFQIntraTenantRoundRobin checks the per-tenant cursor: one tenant's
// coroutines share its turns evenly instead of the lowest slot starving
// the rest.
func TestWFQIntraTenantRoundRobin(t *testing.T) {
	s := New()
	cos := make([]*yielder, 4)
	for i := range cos {
		cos[i] = &yielder{}
		s.SpawnTenant(Background, 1, cos[i])
	}
	for i := 0; i < 400; i++ {
		s.RunOne()
	}
	for i, c := range cos {
		if c.polls != 100 {
			t.Errorf("coroutine %d polled %d times, want 100", i, c.polls)
		}
	}
}

// TestWFQIdleTenantCannotBankCredit pins the clamp in SpawnTenant: a
// tenant that sat idle while another accumulated virtual time starts at
// the active tenant's clock, not at zero, so it cannot monopolize the
// scheduler to "catch up".
func TestWFQIdleTenantCannotBankCredit(t *testing.T) {
	s := New()
	s.SetTenantWeight(1, 1)
	s.SetTenantWeight(2, 1)
	early := &yielder{}
	s.SpawnTenant(Background, 1, early)
	for i := 0; i < 1000; i++ {
		s.RunOne()
	}
	late := &yielder{}
	s.SpawnTenant(Background, 2, late)
	window := 200
	for i := 0; i < window; i++ {
		s.RunOne()
	}
	// Without the clamp the late tenant would take all 200 polls.
	if late.polls > window/2+10 {
		t.Errorf("late tenant took %d of %d polls after idling — banked credit", late.polls, window)
	}
}

// TestWFQOffByDefault: with only host-tenant spawns the legacy FIFO
// round-robin path runs (wfq stays disarmed), preserving bit-exact
// scheduling for every existing single-tenant workload.
func TestWFQOffByDefault(t *testing.T) {
	s := New()
	s.Spawn(Background, &yielder{})
	if s.wfq {
		t.Fatal("host-tenant Spawn armed WFQ")
	}
	s.SpawnTenant(Background, 1, &yielder{})
	if !s.wfq {
		t.Fatal("nonzero tenant spawn did not arm WFQ")
	}
}

// TestRunOneAllocs: on a warmed scheduler a switch allocates nothing, under
// the plain round-robin scan and under weighted-fair picking alike, and
// neither does a wake that makes a parked coroutine ready again, among one
// or among 8 192 parked ones, nor a spawn into a block that had no
// coroutine, which sets the block's summary bit.
func TestRunOneAllocs(t *testing.T) {
	plain := New()
	plain.Spawn(FastPath, &yielder{})

	wfq := New()
	wfq.SetTenantWeight(1, 3)
	wfq.SetTenantWeight(2, 1)
	wfq.SpawnTenant(Background, 1, &yielder{})
	wfq.SpawnTenant(Background, 2, &yielder{})

	parked := New()
	h := parked.Spawn(Background, Func(func(*Context) Poll { return Pending }))
	parked.RunOne()

	pending := Func(func(*Context) Poll { return Pending })
	crowd := New()
	var mid Handle
	for i := 0; i < 8192; i++ {
		if hi := crowd.Spawn(Background, pending); i == 5000 {
			mid = hi
		}
	}
	for crowd.RunOne() {
	}

	// Block 0 full of parked coroutines, block 1 empty once its first
	// coroutine is done.
	done := Func(func(*Context) Poll { return Done })
	opener := New()
	for i := 0; i < 64; i++ {
		opener.Spawn(App, pending)
	}
	for opener.RunOne() {
	}

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"RunOne", func() { plain.RunOne() }},
		{"RunOne under WFQ", func() { wfq.RunOne() }},
		{"Wake then RunOne", func() { h.Wake(); parked.RunOne() }},
		{"Wake then RunOne with 8 192 parked", func() { mid.Wake(); crowd.RunOne() }},
		{"Spawn into an empty block, then RunOne", func() { opener.Spawn(App, done); opener.RunOne() }},
	} {
		tc.fn() // warm
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
