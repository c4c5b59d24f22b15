package core

import (
	"math/rand"
	"testing"

	"demikernel/internal/sched"
	"demikernel/internal/sim"
)

// alarmHost is an AlarmHost that queues every wake-up it is asked for, in
// order, and cancels none, as the simulator does.
type alarmHost struct {
	fakeHost
	fns []func()
}

func (h *alarmHost) WakeAt(_ sim.Time, fn func()) { h.fns = append(h.fns, fn) }

// heapHost is a TimerHost.
type heapHost struct {
	fakeHost
	heap TimerHeap
}

func (h *heapHost) TimerHeap() *TimerHeap { return &h.heap }

// sleepers spawns n coroutines that count their polls and sleep, and
// returns their wakers; polled runs the scheduler and reports who ran.
func sleepers(n int) (*sched.Scheduler, []sched.Waker, func() []int) {
	s := sched.New()
	polls := make([]int, n)
	ws := make([]sched.Waker, n)
	for i := range ws {
		s.Spawn(sched.Background, sched.Func(func(ctx *sched.Context) sched.Poll {
			ws[i] = ctx.Waker()
			polls[i]++
			return sched.Pending
		}))
	}
	for s.RunOne() {
	}
	return s, ws, func() []int {
		clear(polls)
		for s.RunOne() {
		}
		var ran []int
		for i, p := range polls {
			if p > 0 {
				ran = append(ran, i)
			}
		}
		return ran
	}
}

// On a host that cancels nothing every Reset is one more wake-up, each of
// which wakes the coroutine, Stop cancels none of them, and the cell goes
// back to the pool only with the last: the handle then takes a fresh one.
func TestTimersOnAlarmHost(t *testing.T) {
	h := &alarmHost{}
	var ts Timers
	ts.init(h)
	_, ws, polled := sleepers(1)
	var tm Timer
	for i := 0; i < 3; i++ {
		ts.Reset(&tm, ws[0], sim.Time(i))
	}
	cell, gen := tm.c, tm.gen
	if len(h.fns) != 3 || cell.n != 3 {
		t.Fatalf("three arms queued %d wake-ups, %d counted", len(h.fns), cell.n)
	}
	ts.Stop(&tm)
	for i, fn := range h.fns {
		fn()
		if ran := polled(); len(ran) != 1 {
			t.Fatalf("wake-up %d woke %v", i, ran)
		}
		if back := len(ts.free) == timerChunk; back != (i == 2) {
			t.Fatalf("after wake-up %d the cell is back in the pool: %v", i, back)
		}
	}
	ts.Reset(&tm, ws[0], 9)
	if tm.c != cell || tm.gen == gen {
		t.Errorf("a stopped handle's next Reset took cell %p at gen %d, want the recycled %p past gen %d", tm.c, tm.gen, cell, gen)
	}
}

// On a host that cancels, Fire wakes exactly the timers armed with a
// deadline due, each once, whatever Resets moved and Stops removed before:
// a model of each timer's deadline against the heap, over random scripts.
func TestTimerHeapMatchesModel(t *testing.T) {
	const timers = 24
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &heapHost{}
		var ts Timers
		ts.init(h)
		_, ws, polled := sleepers(timers)
		tms := make([]Timer, timers)
		due := make(map[int]sim.Time) // the armed timers' deadlines
		now := sim.Time(0)
		for step := 0; step < 400; step++ {
			i := rng.Intn(timers)
			switch rng.Intn(4) {
			case 0, 1:
				at := now + sim.Time(rng.Intn(100))
				ts.Reset(&tms[i], ws[i], at)
				due[i] = at
			case 2:
				ts.Stop(&tms[i])
				delete(due, i)
			case 3:
				now += sim.Time(rng.Intn(60))
				h.heap.Fire(now)
				var want []int
				for j := 0; j < timers; j++ {
					if at, ok := due[j]; ok && at <= now {
						want = append(want, j)
						delete(due, j)
					}
				}
				if got := polled(); !equalInts(got, want) {
					t.Fatalf("seed %d step %d: Fire(%d) woke %v, want %v", seed, step, now, got, want)
				}
			}
			if h.heap.Len() != len(due) {
				t.Fatalf("seed %d step %d: the heap holds %d timers, %d armed", seed, step, h.heap.Len(), len(due))
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
