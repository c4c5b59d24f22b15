package catmem

import "demikernel/internal/core"

// ring is one direction of a catmem duplex queue pair: a fixed-capacity
// FIFO of scatter-gather arrays modelling a shared-memory descriptor ring.
// Slots are preallocated at rendezvous so the datapath never touches the Go
// allocator; producer and consumer run on different simulated cores, with
// the baton discipline standing in for the real ring's memory-ordering
// protocol.
type ring struct {
	slots []core.SGArray
	head  int // next slot to pop
	tail  int // next slot to fill
	count int
}

// newRing preallocates a ring of the given slot capacity.
func newRing(capacity int) *ring {
	return &ring{slots: make([]core.SGArray, capacity)}
}

func (r *ring) tryPush(sga core.SGArray) bool {
	if r.count == len(r.slots) {
		return false
	}
	r.slots[r.tail] = sga
	r.tail++
	if r.tail == len(r.slots) {
		r.tail = 0
	}
	r.count++
	return true
}

func (r *ring) tryPop() (core.SGArray, bool) {
	if r.count == 0 {
		return core.SGArray{}, false
	}
	sga := r.slots[r.head]
	r.slots[r.head] = core.SGArray{}
	r.head++
	if r.head == len(r.slots) {
		r.head = 0
	}
	r.count--
	return sga, true
}

func (r *ring) depth() int { return r.count }
