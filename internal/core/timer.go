package core

import (
	"demikernel/internal/sched"
	"demikernel/internal/sim"
)

// An AlarmHost is a Host that can be woken at a set time: WakeAt makes Park
// return by t, after running fn if fn is not nil. It cancels nothing, so
// every call is one more wake-up. A *sim.Node is one: a call is one engine
// event.
type AlarmHost interface {
	Host
	WakeAt(t sim.Time, fn func())
}

// A TimerHost is a Host that queues its library OSes' timers itself, in a
// TimerHeap it fires from Park, and so can cancel them.
type TimerHost interface {
	Host
	TimerHeap() *TimerHeap
}

// A Timer wakes one coroutine at a host time. Its owner embeds it by value
// (a connection's retransmit and ack coroutines, the ARP retrier) and arms
// it through its library OS's Timers; the zero Timer is disarmed. It is a
// handle on a wake cell the Timers lend: the cell holds the coroutine's
// sched.Waker, not the owner, so what a host has queued keeps nothing of
// the owner reachable, and a fire after the coroutine has exited is a no-op
// (the Waker's generation check). A cell goes back to its pool once nothing
// of it is queued; its generation then moves on, and the handle takes a
// fresh cell at its next Reset.
type Timer struct {
	c   *timerCell
	gen uint32
}

// timerCell is what a host queues for a Timer. n counts what of it is
// queued: on an AlarmHost the wake-ups not yet run (each Reset adds one),
// on a TimerHost its heap position plus one. It is in use exactly while n
// is not 0.
type timerCell struct {
	w    sched.Waker
	gen  uint32
	n    int32
	fire func() // fired, built with the cell: what an AlarmHost runs
	ts   *Timers
}

// timerChunk is how many cells Timers makes at once. Chunks are never
// freed: their cells go round the pool.
const timerChunk = 8

// Timers lends a library OS's Timers their cells and arms them on its host.
type Timers struct {
	alarm AlarmHost  // a host that cancels nothing
	heap  *TimerHeap // a host that cancels
	free  []*timerCell
}

func (ts *Timers) init(host Host) {
	switch h := host.(type) {
	case TimerHost:
		ts.heap = h.TimerHeap()
	case AlarmHost:
		ts.alarm = h
	}
}

// Reset arms t to wake w at at. On an AlarmHost it queues one wake-up more,
// and the ones queued before still run and wake w, so every arm is one
// event of the simulator's schedule. On a TimerHost it moves t's one entry,
// so a superseded deadline never fires.
func (ts *Timers) Reset(t *Timer, w sched.Waker, at sim.Time) {
	c := t.c
	if c == nil || c.gen != t.gen {
		c = ts.take()
		t.c, t.gen = c, c.gen
	}
	c.w = w
	if ts.heap != nil {
		ts.heap.reset(c, at)
		return
	}
	c.n++
	ts.alarm.WakeAt(at, c.fire)
}

// Stop disarms t. A TimerHost removes its entry and the cell is free at
// once. An AlarmHost cannot cancel, so what t queued there still runs.
func (ts *Timers) Stop(t *Timer) {
	c := t.c
	t.c = nil
	if c != nil && c.gen == t.gen && ts.heap != nil {
		ts.heap.remove(c)
		ts.put(c)
	}
}

func (ts *Timers) take() *timerCell {
	if len(ts.free) == 0 {
		if ts.heap == nil && ts.alarm == nil {
			panic("core: the host has no timers")
		}
		cells := new([timerChunk]timerCell)
		for i := range cells {
			c := &cells[i]
			c.ts = ts
			if ts.alarm != nil {
				c.fire = c.fired
			}
			ts.free = append(ts.free, c)
		}
	}
	c := ts.free[len(ts.free)-1]
	ts.free = ts.free[:len(ts.free)-1]
	return c
}

// put frees c, whose gen moves on so its last handle is stale.
func (ts *Timers) put(c *timerCell) {
	c.gen++
	c.w = sched.Waker{}
	ts.free = append(ts.free, c)
}

// fired is one of c's wake-ups on an AlarmHost.
func (c *timerCell) fired() {
	c.n--
	c.w.Wake()
	if c.n == 0 {
		c.ts.put(c)
	}
}

// A TimerHeap is a TimerHost's queue: a binary min-heap of timer cells by
// deadline, each in it at most once. Reset moves a cell's entry, Stop
// removes it, and Fire wakes every timer due, so nothing superseded or
// stopped fires and the heap holds at most one entry per armed Timer.
type TimerHeap struct{ es []heapEntry }

type heapEntry struct {
	at sim.Time
	c  *timerCell
}

// Len returns how many timers are armed.
func (h *TimerHeap) Len() int { return len(h.es) }

// Fire wakes, earliest first, the coroutine of every timer due by now.
func (h *TimerHeap) Fire(now sim.Time) {
	for len(h.es) > 0 && h.es[0].at <= now {
		c := h.es[0].c
		h.remove(c)
		c.w.Wake()
		c.ts.put(c)
	}
}

func (h *TimerHeap) reset(c *timerCell, at sim.Time) {
	if c.n == 0 {
		h.es = append(h.es, heapEntry{at, c})
		c.n = int32(len(h.es))
		h.up(len(h.es) - 1)
		return
	}
	h.es[c.n-1].at = at
	h.fix(int(c.n - 1))
}

func (h *TimerHeap) remove(c *timerCell) {
	i, last := int(c.n-1), len(h.es)-1
	h.swap(i, last)
	h.es[last] = heapEntry{}
	h.es = h.es[:last]
	c.n = 0
	if i < last {
		h.fix(i)
	}
}

// fix restores the heap order around entry i, whose deadline changed.
func (h *TimerHeap) fix(i int) {
	c := h.es[i].c
	h.up(i)
	h.down(int(c.n - 1))
}

func (h *TimerHeap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].c.n, h.es[j].c.n = int32(i+1), int32(j+1)
}

func (h *TimerHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.es[p].at <= h.es[i].at {
			return
		}
		h.swap(p, i)
		i = p
	}
}

func (h *TimerHeap) down(i int) {
	for {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h.es) && h.es[l].at < h.es[m].at {
			m = l
		}
		if r < len(h.es) && h.es[r].at < h.es[m].at {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
