package memory

// Per-tenant heap regions (ROADMAP "per-tenant DMA heaps"): the heap is
// partitioned into tenant-scoped superblocks with byte quotas, and tenants
// reach their region only through a TenantHeap capability. The host tenant
// (id 0) is the trusted infrastructure principal — unaccounted, unlimited —
// so single-tenant datapaths pay nothing for the machinery.

// tenantAcct is one tenant's byte account.
type tenantAcct struct {
	quota   int64 // bytes; <= 0 means unlimited
	used    int64 // live bytes charged to the tenant
	allocs  uint64
	frees   uint64
	rejects uint64 // allocations denied by the quota
}

// TenantStats is a snapshot of one tenant's heap account.
type TenantStats struct {
	Quota   int64
	Used    int64
	Allocs  uint64
	Frees   uint64
	Rejects uint64
}

// SetTenantQuota caps tenant tid's live bytes (<= 0 removes the cap).
// Lowering the quota below current usage denies new allocations until
// frees bring usage back under it — live buffers are never revoked.
func (h *Heap) SetTenantQuota(tid uint32, bytes int64) {
	if tid == 0 {
		panic("memory: host tenant 0 cannot be quota-limited")
	}
	h.acct(tid).quota = bytes
}

// TenantStats returns a snapshot of tenant tid's account.
func (h *Heap) TenantStats(tid uint32) TenantStats {
	if h.tenants == nil {
		return TenantStats{}
	}
	a := h.tenants[tid]
	if a == nil {
		return TenantStats{}
	}
	return TenantStats{Quota: a.quota, Used: a.used, Allocs: a.allocs, Frees: a.frees, Rejects: a.rejects}
}

// Tenant returns the capability handle for tenant tid's region of the
// heap. Handles are cheap and interchangeable: all handles for one id
// reach the same account.
func (h *Heap) Tenant(tid uint32) *TenantHeap {
	if tid == 0 {
		panic("memory: the host tenant needs no TenantHeap — use the Heap directly")
	}
	h.acct(tid) // ensure the account exists
	return &TenantHeap{h: h, id: tid}
}

// TenantHeap is one tenant's view of a shared heap. Allocations are
// charged to (and placed in) the tenant's region; frees go through TryFree
// so a hostile tenant's double free or foreign free is an error, never a
// panic, and never touches another tenant's buffers.
type TenantHeap struct {
	h  *Heap
	id uint32
}

// TryAlloc allocates size bytes from the tenant's region, or ErrNoMem if
// the byte quota is exhausted.
func (th *TenantHeap) TryAlloc(size int) (*Buf, error) {
	return th.h.TryAllocTenant(th.id, size)
}

// TryCopyFrom allocates a tenant-charged buffer holding a copy of p.
func (th *TenantHeap) TryCopyFrom(p []byte) (*Buf, error) {
	size := len(p)
	if size == 0 {
		size = 1
	}
	b, err := th.TryAlloc(size)
	if err != nil {
		return nil, err
	}
	b.data = b.data[:len(p)]
	copy(b.data, p)
	return b, nil
}

// CopyFrom is TryCopyFrom with exhaustion as a panic.
func (th *TenantHeap) CopyFrom(p []byte) *Buf {
	b, err := th.TryCopyFrom(p)
	if err != nil {
		panic("memory: TenantHeap.CopyFrom: " + err.Error())
	}
	return b
}

// Owns reports whether b was allocated from this tenant's region.
func (th *TenantHeap) Owns(b *Buf) bool { return b != nil && b.sb.tenant == th.id }

// TryFree drops the application reference through the tenant capability:
// ErrForeignBuf if the buffer belongs to another tenant's region (the
// buffer is untouched — freeing is a right that comes with the region),
// ErrDoubleFree if the reference is already gone.
func (th *TenantHeap) TryFree(b *Buf) error {
	if !th.Owns(b) {
		return ErrForeignBuf
	}
	return b.TryFree()
}

// Used returns the tenant's live charged bytes.
func (th *TenantHeap) Used() int64 { return th.h.TenantStats(th.id).Used }

// Stats returns a snapshot of the tenant's account.
func (th *TenantHeap) Stats() TenantStats { return th.h.TenantStats(th.id) }
