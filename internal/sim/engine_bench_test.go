package sim

import (
	"fmt"
	"testing"
)

// BenchmarkHandoff: two nodes wake each other and park; one operation is one
// handoff (node to engine to node), the cost every idle transition of every
// simulated workload pays.
func BenchmarkHandoff(b *testing.B) {
	e := NewEngine(1)
	pong, ping := e.NewNode("pong"), e.NewNode("ping") // pong starts first and is parked when ping first wakes it
	e.Spawn(pong, func() {
		for pong.Park(Infinity) {
			e.At(pong.Now(), ping, nil)
		}
	})
	e.Spawn(ping, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 {
			e.At(ping.Now(), pong, nil)
			ping.Park(Infinity)
		}
		b.StopTimer()
		e.Stop()
	})
	e.Run()
}

// BenchmarkEventQueue: one push and one pop with the queue held at a fixed
// depth, at instants scattered the way retransmission timers scatter them.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{1, 1_000, 64_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var h eventHeap
			r := NewRand(1)
			nop := func() {}
			seq := uint64(0)
			push := func(now Time) {
				seq++
				h.push(event{at: now + Time(r.Intn(1_000_000)), seq: seq, fn: nop})
			}
			for i := 0; i < depth; i++ {
				push(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(h.pop().at)
			}
		})
	}
}

func TestEventQueueSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	round := func() {
		for i := 0; i < 64; i++ {
			e.At(e.Now()+Time(i*37%64), nil, nop)
		}
		e.Run()
	}
	round() // grow the key array and the slab to their high-water mark
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("At + pop allocate %.2f times per 64 events at steady state, want 0", avg)
	}
}
