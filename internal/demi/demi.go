// Package demi assembles Demikernel library OSes into the integrated
// datapath OS the application links against. Its centerpiece is Combined,
// the network×storage integration (paper §5.5: Catnip×Cattree and
// Catmint×Cattree): one node runs both stacks, the scheduler splits the
// fast path between the NIC and the NVMe completion queues round-robin,
// and a single wait call spans qtokens from both — which is what lets
// Redis receive a PUT, log it to disk, and reply without a copy or context
// switch.
package demi

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
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

// StorageOS is implemented by libOSes with a storage log (Cattree, Catnap,
// Combined): cursor control and log truncation beyond plain push/pop.
type StorageOS interface {
	Seek(qd core.QDesc, offset int64) error
	Truncate(qd core.QDesc) error
}

// NetOS is the libOS-internal contract Combined needs from a network
// libOS (Catnip or Catmint satisfy it).
type NetOS interface {
	LibOS
	Tokens() *core.TokenTable
	Step() bool
	Block(deadline sim.Time) bool
	Now() sim.Time
}

// StorOS is the libOS-internal contract for the storage side (Cattree).
type StorOS interface {
	LibOS
	StorageOS
	Tokens() *core.TokenTable
	Step() bool
	Mount() error
}

// SchedStatser is implemented by libOSes that expose their coroutine
// scheduler's counters (Catnip, Catmint, Cattree, Combined). Scale-out
// harnesses read it per core for utilization breakdowns.
type SchedStatser interface {
	SchedStats() sched.Stats
}

// Drivable is a libOS whose wait loop can be driven externally (the
// baseline wrappers run core.Waiter over it to charge kernel-path costs).
// Combined and the network libOSes satisfy it.
type Drivable interface {
	LibOS
	TryTake(qt core.QToken) (core.QEvent, bool, error)
	Step() bool
	Block(deadline sim.Time) bool
	Now() sim.Time
}

// storTag marks descriptors owned by the storage libOS and storTokenTag its
// tokens. A token is a slot index and a generation packed into the low 63
// bits (core/token.go), so the tag sits at bit 63, the one bit no table sets:
// at bit 30 a network token minted in a slot's 64th generation (and, when
// tokens were a count, the 2³⁰-th one) routed to the storage table.
const (
	storTag      core.QDesc  = 1 << 30
	storTokenTag core.QToken = 1 << 63
)

// Combined is a network×storage datapath OS on one node.
type Combined struct {
	Net  NetOS
	Stor StorOS
	// pollNetNext alternates the fast path between devices.
	pollNetNext bool
	// waiter is the shared wait loop over both token tables.
	waiter core.Waiter
}

// NewCombined integrates a network and a storage libOS running on the same
// node.
func NewCombined(net NetOS, stor StorOS) *Combined {
	c := &Combined{Net: net, Stor: stor}
	c.waiter = core.Waiter{Runner: c, Take: c.TryTake, Completions: c.Completions}
	return c
}

// Heap returns the network libOS's DMA heap (shared by convention: the
// paper backs both devices from one allocator).
func (c *Combined) Heap() *memory.Heap { return c.Net.Heap() }

// Mount recovers the storage log (control path).
func (c *Combined) Mount() error { return c.Stor.Mount() }

// --- descriptor/token tagging ---

func isStorQD(qd core.QDesc) bool    { return qd&storTag != 0 }
func tagQD(qd core.QDesc) core.QDesc { return qd | storTag }
func untagQD(qd core.QDesc) core.QDesc {
	return qd &^ storTag
}

func isStorQT(qt core.QToken) bool     { return qt&storTokenTag != 0 }
func tagQT(qt core.QToken) core.QToken { return qt | storTokenTag }
func untagQT(qt core.QToken) core.QToken {
	return qt &^ storTokenTag
}

// retagEvent rewrites a storage event into the combined namespace. NewQD
// must be retagged too: an accept-style completion carrying an untagged
// descriptor would route the application's next operation on it to the
// wrong libOS.
func retagEvent(ev core.QEvent) core.QEvent {
	ev.QD = tagQD(ev.QD)
	if ev.NewQD > 0 {
		ev.NewQD = tagQD(ev.NewQD)
	}
	return ev
}

// --- PDPIX: network calls pass through ---

// Socket creates a network socket.
func (c *Combined) Socket(t core.SockType) (core.QDesc, error) { return c.Net.Socket(t) }

// Bind binds a network socket.
func (c *Combined) Bind(qd core.QDesc, a core.Addr) error { return c.Net.Bind(qd, a) }

// Listen starts a listener.
func (c *Combined) Listen(qd core.QDesc, backlog int) error { return c.Net.Listen(qd, backlog) }

// Accept asks for an inbound connection.
func (c *Combined) Accept(qd core.QDesc) (core.QToken, error) { return c.Net.Accept(qd) }

// Connect initiates a connection.
func (c *Combined) Connect(qd core.QDesc, a core.Addr) (core.QToken, error) {
	return c.Net.Connect(qd, a)
}

// Queue creates an in-memory queue (on the network side).
func (c *Combined) Queue() (core.QDesc, error) { return c.Net.Queue() }

// Open opens the storage log.
func (c *Combined) Open(name string) (core.QDesc, error) {
	qd, err := c.Stor.Open(name)
	if err != nil {
		return core.InvalidQD, err
	}
	return tagQD(qd), nil
}

// Seek moves a storage cursor.
func (c *Combined) Seek(qd core.QDesc, off int64) error {
	if !isStorQD(qd) {
		return core.ErrNotSupported
	}
	return c.Stor.Seek(untagQD(qd), off)
}

// Truncate garbage-collects the log.
func (c *Combined) Truncate(qd core.QDesc) error {
	if !isStorQD(qd) {
		return core.ErrNotSupported
	}
	return c.Stor.Truncate(untagQD(qd))
}

// Close releases a queue on whichever side owns it.
func (c *Combined) Close(qd core.QDesc) error {
	if isStorQD(qd) {
		return c.Stor.Close(untagQD(qd))
	}
	return c.Net.Close(qd)
}

// storToken moves a storage-side libcall's token into the combined namespace.
func storToken(qt core.QToken, err error) (core.QToken, error) {
	if err != nil {
		return core.InvalidQToken, err
	}
	return tagQT(qt), nil
}

// Push dispatches to the owning libOS.
func (c *Combined) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	if isStorQD(qd) {
		return storToken(c.Stor.Push(untagQD(qd), sga))
	}
	return c.Net.Push(qd, sga)
}

// PushTo dispatches a datagram push; a log refuses it like any stream queue.
func (c *Combined) PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error) {
	if isStorQD(qd) {
		return storToken(c.Stor.PushTo(untagQD(qd), sga, to))
	}
	return c.Net.PushTo(qd, sga, to)
}

// Pop dispatches to the owning libOS.
func (c *Combined) Pop(qd core.QDesc) (core.QToken, error) {
	if isStorQD(qd) {
		return storToken(c.Stor.Pop(untagQD(qd)))
	}
	return c.Net.Pop(qd)
}

// --- Integrated wait machinery ---

// TryTake redeems a token from whichever table owns it.
func (c *Combined) TryTake(qt core.QToken) (core.QEvent, bool, error) {
	if isStorQT(qt) {
		ev, done, err := c.Stor.Tokens().TryTake(untagQT(qt))
		if done {
			ev = retagEvent(ev)
		}
		return ev, done, err
	}
	return c.Net.Tokens().TryTake(qt)
}

// Completions counts the operations completed on either side; a wait over
// Combined's tokens rescans them only when it has moved.
func (c *Combined) Completions() uint64 {
	return c.Net.Tokens().Completions() + c.Stor.Tokens().Completions()
}

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

// IsStorageQD reports whether qd belongs to the storage side.
func (c *Combined) IsStorageQD(qd core.QDesc) bool { return isStorQD(qd) }

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
		}
	}
	return total
}

// Wait blocks until qt completes.
func (c *Combined) Wait(qt core.QToken) (core.QEvent, error) { return c.waiter.Wait(qt) }

// WaitAny blocks until one of qts completes.
func (c *Combined) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	return c.waiter.WaitAny(qts, timeout)
}

// WaitAll blocks until every token completes.
func (c *Combined) WaitAll(qts []core.QToken, timeout time.Duration) ([]core.QEvent, error) {
	return c.waiter.WaitAll(qts, timeout)
}
