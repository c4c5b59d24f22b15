package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkHandoff: two nodes wake each other and park; one operation is one
// handoff, the cost every idle transition of every simulated workload pays:
// one coroutine switch, as the parker resumes the other node or yields back
// to the node that resumed it.
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

// BenchmarkHandoffRing: a wake-up passes round a ring of nodes, each parking
// once it has woken its successor; one operation is one handoff. The chain of
// resumers grows one level per handoff down the ring and unwinds where the
// ring closes, so a lap of k nodes costs 2(k-1) switches: a large ring
// approaches the two switches a handoff through Run costs.
func BenchmarkHandoffRing(b *testing.B) {
	for _, size := range []int{2, 3, 8, 32} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			e := NewEngine(1)
			ring := make([]*Node, size)
			for i := range ring {
				ring[i] = e.NewNode(fmt.Sprint("r", i))
			}
			for i, n := range ring[1:] {
				succ := ring[(i+2)%size]
				e.Spawn(n, func() {
					for n.Park(Infinity) {
						e.At(n.Now(), succ, nil)
					}
				})
			}
			r0 := ring[0]
			e.Spawn(r0, func() {
				r0.Yield() // the others park first
				b.ResetTimer()
				for i := 0; i < b.N; i += size {
					e.At(r0.Now(), ring[1], nil)
					r0.Park(Infinity)
				}
				b.StopTimer()
				e.Stop()
			})
			e.Run()
		})
	}
}

// BenchmarkParkKeep: a lone node parks on a deadline; one operation is one
// park whose own wake-up is the next thing due, so the node keeps the baton:
// an At, one event and no coroutine switch.
func BenchmarkParkKeep(b *testing.B) {
	e := NewEngine(1)
	n := e.NewNode("n")
	e.Spawn(n, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Park(n.Now().Add(time.Nanosecond))
		}
		b.StopTimer()
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
	// What Catnip's never-cancelled retransmission timers do to the queue:
	// ≈ 12 k deadlines of now+1 ms resident, re-armed as they fire, while
	// near events (frame deliveries, park deadlines) come and go under them.
	b.Run("stale-timers", func(b *testing.B) {
		var h eventHeap
		r := NewRand(1)
		nop := func() {}
		near := &Node{}
		seq := uint64(0)
		push := func(at Time, target *Node) {
			seq++
			h.push(event{at: at, seq: seq, target: target, fn: nop})
		}
		const resident, rto = 12_000, Time(1_000_000)
		for i := 0; i < resident; i++ {
			push(rto*Time(i)/resident, nil)
		}
		for i := 0; i < 4; i++ {
			push(Time(r.Intn(1000)), near)
		}
		step := func() {
			if ev := h.pop(); ev.target == near {
				push(ev.at+Time(r.Intn(1000)), near)
			} else {
				push(ev.at+rto, nil)
			}
		}
		for i := 0; i < 4*resident; i++ {
			step() // the timers find their lane
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
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
