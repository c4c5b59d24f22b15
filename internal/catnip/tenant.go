package catnip

import (
	"demikernel/internal/memory"
	"demikernel/internal/sched"
)

// Multi-tenant plumbing: the stack itself stays principal-agnostic — it
// tags sockets, connections, coroutine spawns and rx allocations with the
// token table's issuer at NewSocket (the bracket tenant.View sets around
// each libcall), and the tenant.View enforces the quotas. Tenant 0 is the
// host: untagged, unweighted, the original fast path.

// RegisterTenant assigns tenant tid a dense scheduler index and its
// weighted-fair share of poll cycles (tenant.Registrar).
func (l *LibOS) RegisterTenant(tid uint32, weight uint32) {
	if tid == 0 {
		return
	}
	if l.tenantIdx == nil {
		l.tenantIdx = make(map[uint32]uint8)
	}
	idx, ok := l.tenantIdx[tid]
	if !ok {
		if len(l.tenantIdx)+1 >= sched.MaxTenants {
			panic("catnip: too many tenants for one stack")
		}
		idx = uint8(len(l.tenantIdx) + 1)
		l.tenantIdx[tid] = idx
	}
	l.Sched().SetTenantWeight(int(idx), weight)
}

// tenantHeapFor returns the tenant-charged heap capability, nil for the
// host (which allocates on the shared heap directly).
func (l *LibOS) tenantHeapFor(tid uint32) *memory.TenantHeap {
	if tid == 0 {
		return nil
	}
	return l.Heap().Tenant(tid)
}

// copyIn copies an rx payload into the connection's owning tenant's heap
// region, so an inbound flood exhausts the flooded tenant's quota — and
// only it. The caller handles ErrNoMem by dropping without state advance.
func (c *tcpConn) copyIn(p []byte) (*memory.Buf, error) {
	if c.theap != nil {
		return c.theap.TryCopyFrom(p)
	}
	return memory.TryCopyFrom(c.lib.Heap(), p)
}

// copyIn is the datagram analogue of tcpConn.copyIn.
func (s *udpSocket) copyIn(p []byte) (*memory.Buf, error) {
	if s.theap != nil {
		return s.theap.TryCopyFrom(p)
	}
	return memory.TryCopyFrom(s.lib.Heap(), p)
}
