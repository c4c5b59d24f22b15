// Package demi assembles Demikernel library OSes into the integrated
// datapath OS the application links against. Its centerpiece is Combined,
// the network×storage integration (paper §5.5: Catnip×Cattree and
// Catmint×Cattree): one node runs both stacks, the scheduler splits the
// fast path between the NIC and the NVMe completion queues round-robin,
// and both stacks issue from one token table and one descriptor table, so
// a single wait call spans qtokens from both — which is what lets Redis
// receive a PUT, log it to disk, and reply without a copy or context
// switch.
package demi

import (
	"demikernel/internal/core"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
)

// LibOS is the application-facing Demikernel interface: PDPIX (core.LibOS)
// plus the datagram and storage extensions the example applications use.
type LibOS interface {
	core.LibOS
	// PushTo is push with an explicit datagram destination (demi_pushto).
	PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error)
}

// StorageOS is cursor control and log truncation beyond plain push/pop.
// Every library OS answers it through its front end (core.FrontEnd), with
// ErrNotSupported on a descriptor that is not a log; so does Combined.
type StorageOS interface {
	Seek(qd core.QDesc, offset int64) error
	Truncate(qd core.QDesc) error
}

// NetOS is the libOS-internal contract Combined needs from a network
// libOS (Catnip or Catmint satisfy it): the tables its storage side adopts,
// and a host handle that waits by stepping the Combined.
type NetOS interface {
	LibOS
	StorageOS
	Tokens() *core.TokenTable
	Queues() *core.QDescTable
	DrivenBy(r core.Runner) core.Handle
	Step() bool
	Block(deadline sim.Time) bool
	Now() sim.Time
}

// StorOS is the libOS-internal contract for the storage side (Cattree).
type StorOS interface {
	LibOS
	Adopt(tokens *core.TokenTable, qds *core.QDescTable)
	BehindKernel(k core.Kernel)
	Step() bool
}

// SchedStatser is implemented by libOSes that expose their coroutine
// scheduler's counters (Catnip, Catmint, Cattree, Combined). Scale-out
// harnesses read it per core for utilization breakdowns.
type SchedStatser interface {
	SchedStats() sched.Stats
}

// Combined is a network×storage datapath OS on one node: the storage libOS
// issues its tokens and descriptors from the network libOS's tables, so the
// two stacks are one namespace behind one wait loop. Every PDPIX call but
// Open and a log's Push is the embedded handle's: the network front end's
// host handle, whose waits step the Combined.
type Combined struct {
	core.Handle
	Net  NetOS
	Stor StorOS
	// pollNetNext alternates the fast path between devices.
	pollNetNext bool
}

// NewCombined integrates a network and a storage libOS running on the same
// node. stor must not have issued a token or a descriptor yet; a kernel the
// two stacks are behind must be in place already.
func NewCombined(net NetOS, stor StorOS) *Combined {
	stor.Adopt(net.Tokens(), net.Queues())
	c := &Combined{Net: net, Stor: stor}
	c.Handle = net.DrivenBy(c)
	return c
}

// Tokens returns the shared token table.
func (c *Combined) Tokens() *core.TokenTable { return c.Net.Tokens() }

// Open opens a storage log.
func (c *Combined) Open(name string) (core.QDesc, error) { return c.Stor.Open(name) }

// Seek moves a log's read cursor.
func (c *Combined) Seek(qd core.QDesc, off int64) error { return c.Net.Seek(qd, off) }

// Truncate garbage-collects a log.
func (c *Combined) Truncate(qd core.QDesc) error { return c.Net.Truncate(qd) }

// Push submits outbound data. A push to a log goes through the storage
// libOS, so that a decorator of StorOS sees the durable writes.
func (c *Combined) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	if c.IsStorageQD(qd) {
		return c.Stor.Push(qd, sga)
	}
	return c.Handle.Push(qd, sga)
}

// IsStorageQD reports whether qd is an open log.
func (c *Combined) IsStorageQD(qd core.QDesc) bool {
	q, _ := c.Net.Queues().Lookup(qd)
	_, log := q.(core.Log)
	return log
}

// --- Integrated wait machinery ---

// Step alternates the two stacks' fast paths (paper §5.5: round-robin CPU
// between network and storage I/O given no pending work).
func (c *Combined) Step() bool {
	c.pollNetNext = !c.pollNetNext
	if c.pollNetNext {
		return c.Net.Step() || c.Stor.Step()
	}
	return c.Stor.Step() || c.Net.Step()
}

// Block parks the node until an event or deadline.
func (c *Combined) Block(deadline sim.Time) bool { return c.Net.Block(deadline) }

// Now returns the node clock.
func (c *Combined) Now() sim.Time { return c.Net.Now() }

// SchedStats sums the scheduler counters of both stacks (each side runs
// its own scheduler; one core drives both).
func (c *Combined) SchedStats() sched.Stats {
	var total sched.Stats
	for _, side := range []any{c.Net, c.Stor} {
		if s, ok := side.(SchedStatser); ok {
			st := s.SchedStats()
			total.Spawned += st.Spawned
			total.Completed += st.Completed
			total.Polls += st.Polls
			total.EmptyScans += st.EmptyScans
			for k, n := range st.PollsByClass {
				total.PollsByClass[k] += n
			}
		}
	}
	return total
}
