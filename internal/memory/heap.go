// Package memory implements Demikernel's kernel-bypass-aware memory
// allocator (paper §5.3): a Hoard-style pool allocator whose superblocks
// carry the metadata zero-copy I/O needs. Each superblock holds fixed-size
// objects backed by one contiguous DMA-capable arena; its header records
// the device registration (rkey) obtained lazily on first I/O and a
// reference-count bitmap granting use-after-free (UAF) protection: an
// object is recycled only after both the application and the library OS
// have released it.
//
// The paper limits refcounting and DMA registration to objects of at least
// 1 KiB, since zero-copy only pays off above that size; ZeroCopyThreshold
// exposes the same policy to the library OSes.
package memory

import (
	"errors"
	"fmt"

	"demikernel/internal/telemetry"
)

// ErrNoMem is returned by TryAlloc when the heap cannot satisfy the request
// (an injected pool-exhaustion fault, or a tenant's byte quota; a real
// mempool returns it when the DMA arena is full).
var ErrNoMem = errors.New("memory: out of buffers")

// ErrDoubleFree is returned by TryFree when the application reference is
// already gone. It is the non-panicking sibling of Free's invariant panic,
// for paths where the "application" is an untrusted tenant whose bugs (or
// attacks) must be errors, not crashes.
var ErrDoubleFree = errors.New("memory: double free")

// ErrForeignBuf is returned by TenantHeap.TryFree when the buffer belongs
// to a different tenant's region: buffers are capabilities scoped to the
// region that allocated them.
var ErrForeignBuf = errors.New("memory: buffer belongs to another tenant")

// ZeroCopyThreshold is the smallest buffer size worth transmitting
// zero-copy (paper §5.3); smaller buffers are copied by the I/O stacks.
const ZeroCopyThreshold = 1024

// objectsPerSuperblock is the number of fixed-size slots per superblock.
// 64 keeps the refcount bitmaps to one word per holder class.
const objectsPerSuperblock = 64

// RegisterFunc registers a superblock arena with a kernel-bypass device and
// returns the device's access key (an RDMA rkey, a DPDK mempool cookie...).
// It is called at most once per superblock, on first I/O touch, mirroring
// Catmint's get_rkey.
type RegisterFunc func(arena []byte) uint32

// sizeClasses are the superblock object sizes, ascending. Requests above
// the largest class get a dedicated single-object superblock.
var sizeClasses = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144, 1 << 20}

// classFor returns the index of the smallest class that fits size, or -1
// for huge allocations.
func classFor(size int) int {
	for i, c := range sizeClasses {
		if size <= c {
			return i
		}
	}
	return -1
}

// Stats counts allocator activity.
type Stats struct {
	Allocs, Frees  uint64
	Live           int
	Superblocks    int
	Registrations  uint64
	UAFDeferred    uint64 // frees deferred because the libOS still held a reference
	HugeAllocs     uint64
	BytesRequested uint64
	AllocFailures  uint64 // TryAlloc calls denied by the exhaustion hook
}

// A superblock is one pool of fixed-size objects in a contiguous arena.
type superblock struct {
	heap     *Heap
	class    int // object size in bytes
	arena    []byte
	bufs     []Buf
	freeHead int // LIFO free list threaded through nextFree
	nextFree []int

	// tenant scopes the whole superblock to one tenant's region (0 = the
	// host tenant): tenants never share an arena, so one tenant's
	// allocation pattern cannot fragment or exhaust another's slots.
	// charged records the bytes billed to the tenant per live slot, so
	// recycling credits exactly what TryAlloc debited.
	tenant  uint32
	charged []int64

	// appRef and ioRef are the per-object reference bitmaps (paper §5.3):
	// one bit for the application's reference, one for the library OS's.
	// Additional concurrent libOS references (e.g. a buffer in flight on
	// two queues) are counted in ioExtra, the paper's "reference table":
	// one counter per slot, so taking or dropping one touches no map.
	appRef  uint64
	ioRef   uint64
	ioExtra []uint32

	registered bool
	rkey       uint32
}

// Heap is a DMA-capable application heap. It is not safe for concurrent
// use: Demikernel datapaths are single-threaded per core by design.
type Heap struct {
	// register is the device hook for DMA registration; nil means the
	// device needs none (e.g. Catnap's kernel path).
	register RegisterFunc
	partial  [][]*superblock // per class: host-tenant superblocks with free slots
	stats    Stats
	rkeySeq  uint32

	// tpartial holds nonzero tenants' partial lists, keyed tenant<<8|class
	// (maps are keyed-access only, never ranged — determinism). tenants
	// holds the per-tenant byte accounts; tenant 0 (the host) is never
	// accounted and keeps the original fast path above.
	tpartial map[uint64][]*superblock
	tenants  map[uint32]*tenantAcct

	// allocFault, when set, is consulted by TryAlloc; returning true makes
	// the allocation fail with ErrNoMem. It is a plain callback (not a
	// faults.Site) so this package stays importable from everywhere.
	allocFault func(size int) bool
}

// NewHeap returns an empty heap. register may be nil.
func NewHeap(register RegisterFunc) *Heap {
	return &Heap{
		register: register,
		partial:  make([][]*superblock, len(sizeClasses)),
	}
}

// Stats returns a snapshot of allocator counters.
func (h *Heap) Stats() Stats { return h.stats }

// PublishTelemetry registers the heap's counters with reg as sampled gauges
// under prefix (e.g. "mem"). Sampling is pull-model: the stats struct stays
// the hot-path truth and the registry reads it only at snapshot time, so
// the allocator's fast path is untouched.
func (h *Heap) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Sample(prefix+".allocs", func() int64 { return int64(h.stats.Allocs) })
	reg.Sample(prefix+".frees", func() int64 { return int64(h.stats.Frees) })
	reg.Sample(prefix+".refcount_releases", func() int64 { return int64(h.stats.Frees + h.stats.UAFDeferred) })
	reg.Sample(prefix+".live", func() int64 { return int64(h.stats.Live) })
	reg.Sample(prefix+".superblocks", func() int64 { return int64(h.stats.Superblocks) })
	reg.Sample(prefix+".registrations", func() int64 { return int64(h.stats.Registrations) })
	reg.Sample(prefix+".uaf_deferred", func() int64 { return int64(h.stats.UAFDeferred) })
	reg.Sample(prefix+".huge_allocs", func() int64 { return int64(h.stats.HugeAllocs) })
	reg.Sample(prefix+".alloc_failures", func() int64 { return int64(h.stats.AllocFailures) })
	reg.Sample(prefix+".bytes_requested", func() int64 { return int64(h.stats.BytesRequested) })
	reg.Sample(prefix+".superblock_occupancy_pct", func() int64 {
		slots := int64(h.stats.Superblocks) * objectsPerSuperblock
		if slots == 0 {
			return 0
		}
		return int64(h.stats.Live) * 100 / slots
	})
}

// SetAllocFault installs (or clears, with nil) the pool-exhaustion hook
// consulted by TryAlloc. The chaos harness points it at a faults site.
func (h *Heap) SetAllocFault(f func(size int) bool) { h.allocFault = f }

// Alloc returns a buffer of exactly size bytes from the DMA-capable heap,
// with the application holding its reference. It panics if the heap is
// exhausted — callers that can degrade use TryAlloc instead; callers that
// cannot (fixed pre-sized pools, test fixtures) keep the invariant panic.
func (h *Heap) Alloc(size int) *Buf {
	b, err := h.TryAlloc(size)
	if err != nil {
		panic("memory: Alloc: " + err.Error())
	}
	return b
}

// TryAlloc is Alloc with pool exhaustion reported as ErrNoMem instead of a
// panic, so datapaths can drop-with-counter rather than die. The backing
// slot is from a size-class superblock (or a dedicated one for huge sizes).
func (h *Heap) TryAlloc(size int) (*Buf, error) {
	return h.TryAllocTenant(0, size)
}

// TryAllocTenant allocates from one tenant's region of the heap. Tenants
// never share superblocks, and a tenant with a byte quota is denied with
// ErrNoMem once its live bytes would exceed it — its alloc flood exhausts
// its own region, never a victim's. Tenant 0 is the host: unaccounted,
// unlimited, the original fast path.
func (h *Heap) TryAllocTenant(tid uint32, size int) (*Buf, error) {
	if size <= 0 {
		panic("memory: Alloc with non-positive size")
	}
	if h.allocFault != nil && h.allocFault(size) {
		h.stats.AllocFailures++
		return nil, ErrNoMem
	}
	var acct *tenantAcct
	if tid != 0 {
		acct = h.acct(tid)
		if acct.quota > 0 && acct.used+int64(size) > acct.quota {
			acct.rejects++
			h.stats.AllocFailures++
			return nil, ErrNoMem
		}
	}
	h.stats.Allocs++
	h.stats.BytesRequested += uint64(size)
	ci := classFor(size)
	var sb *superblock
	if ci < 0 {
		sb = h.newSuperblock(size, 1)
		sb.tenant = tid
		h.stats.HugeAllocs++
	} else if tid == 0 {
		list := h.partial[ci]
		if len(list) == 0 {
			h.partial[ci] = append(h.partial[ci], h.newSuperblock(sizeClasses[ci], objectsPerSuperblock))
			list = h.partial[ci]
		}
		sb = list[len(list)-1]
	} else {
		key := tkey(tid, ci)
		list := h.tpartial[key]
		if len(list) == 0 {
			nsb := h.newSuperblock(sizeClasses[ci], objectsPerSuperblock)
			nsb.tenant = tid
			h.tpartial[key] = append(list, nsb)
			list = h.tpartial[key]
		}
		sb = list[len(list)-1]
	}
	idx := sb.freeHead
	if idx < 0 {
		panic("memory: superblock on partial list has no free slot")
	}
	sb.freeHead = sb.nextFree[idx]
	sb.appRef |= 1 << uint(idx)
	b := &sb.bufs[idx]
	b.data = sb.arena[idx*sb.class : idx*sb.class+size]
	b.trace = 0 // slots are recycled; a stale trace tag must not leak across owners
	h.stats.Live++
	if acct != nil {
		acct.used += int64(size)
		acct.allocs++
		sb.charged[idx] = int64(size)
	}
	if sb.freeHead < 0 {
		h.dropPartial(sb)
	}
	return b, nil
}

// tkey packs a tenant id and size class into one tpartial map key.
func tkey(tid uint32, ci int) uint64 { return uint64(tid)<<8 | uint64(ci) }

// acct returns (creating on first use) the byte account for a nonzero
// tenant. A fresh account has no quota: accounting without limits.
func (h *Heap) acct(tid uint32) *tenantAcct {
	if h.tenants == nil {
		h.tenants = make(map[uint32]*tenantAcct)
		h.tpartial = make(map[uint64][]*superblock)
	}
	a := h.tenants[tid]
	if a == nil {
		a = &tenantAcct{}
		h.tenants[tid] = a
	}
	return a
}

// newSuperblock carves a fresh arena of count objects of the given size.
func (h *Heap) newSuperblock(objSize, count int) *superblock {
	sb := &superblock{
		heap:     h,
		class:    objSize,
		arena:    make([]byte, objSize*count),
		bufs:     make([]Buf, count),
		nextFree: make([]int, count),
		charged:  make([]int64, count),
		ioExtra:  make([]uint32, count),
	}
	for i := range sb.bufs {
		sb.bufs[i] = Buf{sb: sb, idx: i}
		sb.nextFree[i] = i + 1
	}
	sb.nextFree[count-1] = -1
	sb.freeHead = 0
	h.stats.Superblocks++
	return sb
}

// dropPartial removes a now-full superblock from its class's partial list.
func (h *Heap) dropPartial(sb *superblock) {
	ci := classFor(sb.class)
	if ci < 0 || sizeClasses[ci] != sb.class {
		return // huge superblocks are never on partial lists
	}
	list := h.partial[ci]
	if sb.tenant != 0 {
		list = h.tpartial[tkey(sb.tenant, ci)]
	}
	for i, s := range list {
		if s == sb {
			list[i] = list[len(list)-1]
			if sb.tenant != 0 {
				h.tpartial[tkey(sb.tenant, ci)] = list[:len(list)-1]
			} else {
				h.partial[ci] = list[:len(list)-1]
			}
			return
		}
	}
}

// recycle returns a fully released slot to the free list, crediting the
// owning tenant's byte account. The credit goes to the superblock's tenant
// regardless of who dropped the last reference: under zero-copy handoff
// (catmem) the consumer's free shrinks the *producer's* footprint, which
// is whose quota the bytes were debited from.
func (sb *superblock) recycle(idx int) {
	wasFull := sb.freeHead < 0
	sb.nextFree[idx] = sb.freeHead
	sb.freeHead = idx
	sb.heap.stats.Live--
	sb.heap.stats.Frees++
	if sb.tenant != 0 {
		if a := sb.heap.tenants[sb.tenant]; a != nil {
			a.used -= sb.charged[idx]
			a.frees++
		}
		sb.charged[idx] = 0
	}
	if wasFull {
		if ci := classFor(sb.class); ci >= 0 && sizeClasses[ci] == sb.class {
			if sb.tenant != 0 {
				key := tkey(sb.tenant, ci)
				sb.heap.tpartial[key] = append(sb.heap.tpartial[key], sb)
			} else {
				sb.heap.partial[ci] = append(sb.heap.partial[ci], sb)
			}
		}
	}
}

// ensureRegistered lazily registers the arena with the device and caches
// the key in the superblock header (Catmint's get_rkey fast path).
func (sb *superblock) ensureRegistered() uint32 {
	if !sb.registered {
		sb.registered = true
		sb.heap.stats.Registrations++
		if sb.heap.register != nil {
			sb.rkey = sb.heap.register(sb.arena)
		} else {
			sb.heap.rkeySeq++
			sb.rkey = sb.heap.rkeySeq
		}
	}
	return sb.rkey
}

// LiveObjects returns the number of objects currently allocated (owned by
// the app, the libOS, or both). Exposed for tests and leak checks.
func (h *Heap) LiveObjects() int { return h.stats.Live }

// refString is a test/debug helper describing a slot's reference state.
func (sb *superblock) refString(idx int) string {
	bit := uint64(1) << uint(idx)
	return fmt.Sprintf("app=%v io=%v extra=%d",
		sb.appRef&bit != 0, sb.ioRef&bit != 0, sb.ioExtra[idx])
}
