package sim

// An event is a closure scheduled at a virtual instant, optionally waking a
// target node after it runs. Events are totally ordered by (time, sequence),
// so ties break in scheduling order and runs are deterministic.
type event struct {
	at     Time
	seq    uint64
	target *Node // node to make runnable after fn runs; may be nil
	fn     func()
}

// eventKey is the part of an event the queue orders: 24 bytes and no
// pointers, so a sift copies no closure and triggers no GC write barrier.
// slot names the slab entry holding the rest of the event.
type eventKey struct {
	at   Time
	seq  uint64
	slot uint32
}

func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventPayload is what an event carries but the queue never compares.
type eventPayload struct {
	target *Node
	fn     func()
}

// lanes is the number of FIFO lanes beside the heap: one for each sorted
// stream a two-host TCP run keeps resident at once (retransmission timers
// armed at now+RTO, the re-arms at a connection's standing deadline when a
// stale one fires, and the 5 ms SYN and persist timers) and one for the
// fabric's per-hop delivery delays.
const lanes = 4

// shallow is the queue depth up to which a sift costs less than the lanes'
// scan: up to it every event goes to the heap, and no lane buffer is cut
// shorter.
const shallow = 64

// eventHeap is the engine's event queue: a heap and a few FIFO lanes that
// together pop in (at, seq) order.
//
// The heap is a 4-ary min-heap of keys over a slab of payloads that never
// move. keys[:n] is the heap; keys[n:] park the free slab slots in their
// slot fields, so the slot fields of keys are always a permutation of the
// slab's indices and slot reuse needs no list of its own. Both arrays keep
// their high-water length. We implement it directly rather than through
// container/heap to avoid the interface boxing on the hot path: experiments
// schedule millions of events.
//
// A lane takes only events not before its newest. Appended in nondecreasing
// at and (the engine's seq only grows) increasing seq, a lane is sorted by
// construction, so the queue's minimum is the least of the lanes' heads and
// the heap's root, and pop order is (at, seq) wherever each event went. push
// picks the lane whose newest event is the latest not after the new one, so
// streams of now+constant deadlines with different constants settle in a
// lane each. Catnip arms a retransmission event at now+RTO per data segment
// and never cancels one, so thousands are resident: in a lane each costs a
// ring slot instead of a sift through all the others. A timer wheel that
// cancels (ROADMAP 3(a)) removes the lanes' reason to exist.
type eventHeap struct {
	keys  []eventKey
	n     int
	slab  []eventPayload // len(slab) == len(keys)
	lane  [lanes]Ring[event]
	tail  [lanes]Time // at of each lane's newest event; 0 for an empty lane
	laned int         // events in the lanes
}

func (h *eventHeap) len() int { return h.n + h.laned }

// push allocates only when the heap is deeper than it has ever been or a
// lane outgrows its buffer. Callers push in increasing seq.
func (h *eventHeap) push(e event) {
	if h.n+h.laned >= shallow {
		// Best fit. An empty lane's tail of 0 fits any event and loses to
		// any lane in use that fits.
		fit, fitAt := -1, Time(-1)
		for i, t := range h.tail {
			if t <= e.at && t > fitAt {
				fit, fitAt = i, t
			}
		}
		if fit >= 0 {
			h.lane[fit].Push(e)
			h.tail[fit] = e.at
			h.laned++
			return
		}
	}
	if h.n == len(h.keys) {
		h.keys = append(h.keys, eventKey{slot: uint32(len(h.slab))})
		h.slab = append(h.slab, eventPayload{})
	}
	k := eventKey{at: e.at, seq: e.seq, slot: h.keys[h.n].slot}
	h.slab[k.slot] = eventPayload{target: e.target, fn: e.fn}
	i := h.n
	h.n++
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h.keys[parent]) {
			break
		}
		h.keys[i] = h.keys[parent]
		i = parent
	}
	h.keys[i] = k
}

// first returns the earliest event's key (slot is meaningful only to the
// heap) and the lane it heads, or -1 for the heap's root. The queue must not
// be empty.
func (h *eventHeap) first() (eventKey, int) {
	k, lane := eventKey{at: Infinity, seq: ^uint64(0)}, -1
	if h.n > 0 {
		k = h.keys[0]
	}
	if h.laned == 0 {
		return k, lane
	}
	for i := range h.lane {
		if l := &h.lane[i]; l.Len() > 0 {
			f := l.Front()
			if fk := (eventKey{at: f.at, seq: f.seq}); fk.before(k) {
				k, lane = fk, i
			}
		}
	}
	return k, lane
}

// take removes and returns the event first found: top, heading lane.
func (h *eventHeap) take(top eventKey, lane int) event {
	if lane >= 0 {
		l := &h.lane[lane]
		ev := l.Pop()
		h.laned--
		if l.Len() == 0 {
			h.tail[lane] = 0
		}
		// A lane carries whichever stream finds it, and two until each has
		// its own: cutting the buffer of one that lost its load keeps the
		// lanes together about as large as one heap holding everything.
		l.Shrink(shallow)
		return ev
	}
	p := &h.slab[top.slot]
	ev := event{at: top.at, seq: top.seq, target: p.target, fn: p.fn}
	*p = eventPayload{} // release closure for GC
	h.n--
	last := h.keys[h.n]
	h.keys[h.n] = eventKey{slot: top.slot}
	if h.n > 0 {
		h.siftDown(last)
	}
	return ev
}

// siftDown places k, starting from the vacated root.
func (h *eventHeap) siftDown(k eventKey) {
	keys := h.keys[:h.n]
	i := 0
	for {
		child := 4*i + 1
		if child >= len(keys) {
			break
		}
		end := min(child+4, len(keys))
		least := child
		for j := child + 1; j < end; j++ {
			if keys[j].before(keys[least]) {
				least = j
			}
		}
		if !keys[least].before(k) {
			break
		}
		keys[i] = keys[least]
		i = least
	}
	keys[i] = k
}
