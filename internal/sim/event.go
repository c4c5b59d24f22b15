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

// eventHeap is a 4-ary min-heap of keys ordered by (at, seq) over a slab of
// payloads that never move. keys[:n] is the heap; keys[n:] park the free
// slab slots in their slot fields, so the slot fields of keys are always a
// permutation of the slab's indices and slot reuse needs no list of its
// own. Both arrays keep their high-water length.
//
// Catnip arms a fresh retransmission event per data segment and never
// cancels one, so the queue runs hundreds to thousands deep: four children
// per node halve the levels a pop descends. We implement it directly rather than
// through container/heap to avoid the interface boxing on the hot path:
// experiments schedule millions of events.
type eventHeap struct {
	keys []eventKey
	n    int
	slab []eventPayload // len(slab) == len(keys)
}

func (h *eventHeap) len() int { return h.n }

// push allocates only when the queue is deeper than it has ever been.
//
//demi:nonalloc every Park with a deadline and every packet hop pushes an event
func (h *eventHeap) push(e event) {
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

// peek returns the earliest key without removing it. It panics on an empty
// heap; callers check len first.
func (h *eventHeap) peek() *eventKey { return &h.keys[0] }

//demi:nonalloc
func (h *eventHeap) pop() event {
	top := h.keys[0]
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
//
//demi:nonalloc
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
