package catnip

import (
	"testing"

	"demikernel/internal/dpdkdev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// tenantRig hand-builds an established connection owned by tenant tid
// with a byte quota on its heap region.
func tenantRig(tid uint32, quota int64) (*LibOS, *tcpConn) {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	node := eng.NewNode("srv")
	port := dpdkdev.Attach(sw, node, simnet.DefaultLink(), 1024, 0)
	l := New(node, port, DefaultConfig(wire.IPAddr{10, 0, 0, 1}))
	l.RegisterTenant(tid, 1)
	l.Heap().SetTenantQuota(tid, quota)
	tuple := fourTuple{localPort: 80, remoteIP: wire.IPAddr{10, 0, 0, 2}, remotePort: 9999}
	c := newTCPConn(l, 1, tuple, tid, l.tenantIdx[tid])
	c.state = stateEstablished
	c.macKnown = true
	c.remoteMAC = simnet.MAC{2, 2, 2, 2, 2, 2}
	c.rcvNxt = 1000
	l.conns[tuple] = c
	return l, c
}

// TestTenantRxQuotaNoStateAdvance: when the owning tenant's heap quota is
// exhausted, an in-order segment is dropped without advancing rcvNxt — no
// ack covers it, so the peer retransmits once memory frees up. The quota
// breach must never corrupt receive state (the PR 4 complete-or-error
// contract applied to the rx path).
func TestTenantRxQuotaNoStateAdvance(t *testing.T) {
	l, c := tenantRig(7, 128) // quota far below one segment
	payload := make([]byte, 512)
	before := c.rcvNxt

	c.processPayload(before, payload)

	if c.rcvNxt != before {
		t.Fatalf("rcvNxt advanced on quota drop: %d -> %d", before, c.rcvNxt)
	}
	if c.recvQ.len() != 0 || c.recvBytes != 0 {
		t.Fatalf("payload queued despite quota drop: %d bufs, %d bytes", c.recvQ.len(), c.recvBytes)
	}
	if l.stats.RxAllocDrops != 1 {
		t.Fatalf("RxAllocDrops = %d, want 1", l.stats.RxAllocDrops)
	}
	if got := l.Heap().TenantStats(7).Rejects; got != 1 {
		t.Fatalf("tenant heap rejects = %d, want 1", got)
	}

	// Raising the quota models memory freeing up: the retransmitted
	// segment is accepted at the same sequence and state advances.
	l.Heap().SetTenantQuota(7, 1<<20)
	c.processPayload(before, payload)
	if want := before + uint32(len(payload)); c.rcvNxt != want {
		t.Fatalf("rcvNxt after retransmit = %d, want %d", c.rcvNxt, want)
	}
	if c.recvQ.len() != 1 {
		t.Fatalf("recvQ = %d bufs, want 1", c.recvQ.len())
	}
	// The accepted bytes are charged to the owning tenant's region.
	if used := l.Heap().TenantStats(7).Used; used < int64(len(payload)) {
		t.Fatalf("tenant used = %d, want >= %d", used, len(payload))
	}
}

// TestTenantRxChargesOwningTenant: rx allocations land in the connection
// owner's region, not the host's shared accounting, so one tenant's
// inbound flood can never exhaust the heap for its neighbors.
func TestTenantRxChargesOwningTenant(t *testing.T) {
	l, c := tenantRig(3, 1<<20)
	c.processPayload(c.rcvNxt, make([]byte, 256))
	if used := l.Heap().TenantStats(3).Used; used < 256 {
		t.Fatalf("tenant 3 used = %d, want >= 256", used)
	}
	// Freeing the delivered buffer credits the same account.
	for c.recvQ.len() > 0 {
		c.recvQ.pop().Free()
	}
	if used := l.Heap().TenantStats(3).Used; used != 0 {
		t.Fatalf("tenant 3 used after free = %d, want 0", used)
	}
}
