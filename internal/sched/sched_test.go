package sched

import (
	"testing"
	"testing/quick"

	"demikernel/internal/sim"
)

func TestSpawnAndComplete(t *testing.T) {
	s := New()
	ran := 0
	s.Spawn(App, Func(func(ctx *Context) Poll {
		ran++
		return Done
	}))
	if !s.RunOne() {
		t.Fatal("nothing ran")
	}
	if ran != 1 {
		t.Fatalf("ran %d times", ran)
	}
	if s.RunOne() {
		t.Error("completed coroutine ran again")
	}
	if s.Len(App) != 0 {
		t.Errorf("Len = %d, want 0", s.Len(App))
	}
}

func TestPendingBlocksUntilWake(t *testing.T) {
	s := New()
	polls := 0
	var waker Waker
	h := s.Spawn(App, Func(func(ctx *Context) Poll {
		polls++
		waker = ctx.Waker()
		if polls < 2 {
			return Pending
		}
		return Done
	}))
	_ = h
	s.RunOne()
	if polls != 1 {
		t.Fatalf("polls = %d, want 1", polls)
	}
	if s.RunOne() {
		t.Fatal("blocked coroutine polled without wake")
	}
	waker.Wake()
	if !s.RunOne() {
		t.Fatal("woken coroutine did not run")
	}
	if polls != 2 {
		t.Errorf("polls = %d, want 2", polls)
	}
}

func TestWakeAfterDoneIsNoop(t *testing.T) {
	s := New()
	h := s.Spawn(App, Func(func(ctx *Context) Poll { return Done }))
	s.RunOne()
	h.Wake() // must not resurrect
	if s.RunOne() {
		t.Error("wake after done made coroutine runnable")
	}
}

func TestWakeDuringPollKeepsRunnable(t *testing.T) {
	// A coroutine whose event fires while it is being polled (fast path
	// finds more work mid-poll) must run again without an external wake.
	s := New()
	polls := 0
	s.Spawn(App, Func(func(ctx *Context) Poll {
		polls++
		if polls == 1 {
			ctx.Waker().Wake() // self-wake before blocking
			return Pending
		}
		return Done
	}))
	s.RunOne()
	if !s.RunOne() {
		t.Fatal("self-woken coroutine did not run")
	}
	if polls != 2 {
		t.Errorf("polls = %d", polls)
	}
}

func TestPriorityAppOverBackgroundOverFastPath(t *testing.T) {
	s := New()
	var order []string
	s.Spawn(FastPath, Func(func(ctx *Context) Poll {
		order = append(order, "fast")
		return Yield
	}))
	s.Spawn(Background, Func(func(ctx *Context) Poll {
		order = append(order, "bg")
		return Done
	}))
	s.Spawn(App, Func(func(ctx *Context) Poll {
		order = append(order, "app")
		return Done
	}))
	for i := 0; i < 3; i++ {
		s.RunOne()
	}
	want := []string{"app", "bg", "fast"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOWithinClass(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(App, Func(func(ctx *Context) Poll {
			order = append(order, i)
			return Done
		}))
	}
	for s.RunOne() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, not FIFO", order)
		}
	}
}

func TestYieldRoundRobins(t *testing.T) {
	// Two always-Yield coroutines in one class must alternate, not starve.
	s := New()
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(FastPath, Func(func(ctx *Context) Poll {
			counts[i]++
			return Yield
		}))
	}
	for i := 0; i < 100; i++ {
		s.RunOne()
	}
	if counts[0] < 40 || counts[1] < 40 {
		t.Errorf("unfair: counts = %v", counts)
	}
}

func TestManyBlockedCoroutinesScanFast(t *testing.T) {
	// 1000 blocked coroutines and 1 runnable: RunOne must still find it.
	s := New()
	for i := 0; i < 1000; i++ {
		s.Spawn(App, Func(func(ctx *Context) Poll { return Pending }))
	}
	// Drain the initial-runnable polls.
	for s.RunOne() {
	}
	ran := false
	h := s.Spawn(App, Func(func(ctx *Context) Poll {
		ran = true
		return Done
	}))
	_ = h
	if !s.RunOne() || !ran {
		t.Fatal("runnable coroutine lost among blocked ones")
	}
}

func TestSlotReuseAfterCompletion(t *testing.T) {
	s := New()
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			s.Spawn(App, Func(func(ctx *Context) Poll { return Done }))
		}
		for s.RunOne() {
		}
	}
	// 200 concurrent max => at most 4 blocks should ever exist.
	if len(s.classes[App]) > 4 {
		t.Errorf("blocks grew to %d; slots not reused", len(s.classes[App]))
	}
}

// Property: for any random interleaving of spawns, wakes and polls, a
// coroutine is never polled while blocked (Pending without wake), and every
// wake of a live blocked coroutine leads to exactly one additional poll.
func TestSchedulerWakeProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		rng := sim.NewRand(seed)
		s := New()
		type co struct {
			h       Handle
			polls   int
			pending bool // expects no poll until woken
			done    bool
		}
		var cos []*co
		ok := true
		for i := 0; i < int(steps)%200+20; i++ {
			switch rng.Intn(3) {
			case 0: // spawn: blocks first poll, completes second
				c := &co{}
				c.h = s.Spawn(App, Func(func(ctx *Context) Poll {
					c.polls++
					if c.pending {
						ok = false // polled while blocked
					}
					if c.polls == 1 {
						c.pending = true
						return Pending
					}
					c.done = true
					return Done
				}))
				cos = append(cos, c)
			case 1: // wake a random coroutine
				if len(cos) == 0 {
					continue
				}
				c := cos[rng.Intn(len(cos))]
				if c.pending && !c.done {
					c.pending = false
				}
				c.h.Wake()
			case 2:
				s.RunOne()
			}
			if !ok {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSchedSwitch(b *testing.B) {
	// Paper §5.4: context switch between an empty yielding coroutine and
	// finding the next runnable one costs ~12 cycles in their Rust
	// prototype. This measures our Go equivalent.
	s := New()
	s.Spawn(FastPath, Func(func(ctx *Context) Poll { return Yield }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunOne()
	}
}

func BenchmarkSchedScan1000Blocked(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.Spawn(Background, Func(func(ctx *Context) Poll { return Pending }))
	}
	for s.RunOne() {
	}
	s.Spawn(FastPath, Func(func(ctx *Context) Poll { return Yield }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunOne()
	}
}
