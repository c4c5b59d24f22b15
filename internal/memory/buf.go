package memory

// A Buf is one zero-copy I/O buffer: a fixed slot in a DMA-capable
// superblock. Ownership follows PDPIX semantics: the application owns a Buf
// it allocated or received from pop/wait; push transfers it to the library
// OS until the operation's qtoken completes. Free drops the application's
// reference; IORef/IOUnref manage the library OS's references. The slot is
// recycled only when every reference is gone — that is the allocator's
// use-after-free protection.
type Buf struct {
	sb   *superblock
	idx  int
	data []byte
	// trace is the distributed-trace context riding with the buffer: catmem
	// hands it to the popper with the zero-copy ownership transfer, the
	// network stacks echo it through a wire trailer. Zero means untraced.
	// It is a plain uint64 (not a dtrace type) so memory stays importable
	// from everywhere.
	trace uint64
}

// SetTraceCtx tags the buffer with a distributed-trace context (0 clears).
func (b *Buf) SetTraceCtx(ctx uint64) { b.trace = ctx }

// TraceCtx returns the buffer's distributed-trace context, 0 if untraced.
func (b *Buf) TraceCtx() uint64 { return b.trace }

// Bytes returns the buffer's contents. The application must not modify a
// buffer while it is pushed (UAF protection does not include
// write-protection; paper §4.2).
func (b *Buf) Bytes() []byte { return b.data }

// Len returns the buffer's length in bytes.
func (b *Buf) Len() int { return len(b.data) }

// ZeroCopyEligible reports whether the buffer is large enough that the I/O
// stacks transmit it without copying (paper §5.3: >= 1 KiB).
func (b *Buf) ZeroCopyEligible() bool { return len(b.data) >= ZeroCopyThreshold }

// Rkey returns the device access key for the buffer's superblock,
// registering the arena on first use.
func (b *Buf) Rkey() uint32 { return b.sb.ensureRegistered() }

// bit returns this slot's bitmap mask.
func (b *Buf) bit() uint64 { return 1 << uint(b.idx) }

// AppOwned reports whether the application currently holds its reference.
func (b *Buf) AppOwned() bool { return b.sb.appRef&b.bit() != 0 }

// IOOwned reports whether the library OS holds at least one reference.
func (b *Buf) IOOwned() bool { return b.sb.ioRef&b.bit() != 0 }

// Free drops the application's reference. If the library OS still holds a
// reference (e.g. a TCP segment awaiting acknowledgment), the slot stays
// allocated until IOUnref releases it — freeing is safe at any time after
// push, which is the paper's headline simplification for zero-copy apps.
// Free panics on a double free, since that is a program bug UAF protection
// is designed to surface.
func (b *Buf) Free() {
	if !b.AppOwned() {
		panic("memory: double free of application reference (slot " + b.sb.refString(b.idx) + ")")
	}
	b.sb.appRef &^= b.bit()
	if b.IOOwned() {
		b.sb.heap.stats.UAFDeferred++
		return
	}
	b.sb.recycle(b.idx)
}

// TryFree is Free with the double-free invariant reported as ErrDoubleFree
// instead of a panic. Trusted datapaths keep Free — a double free there is
// a bug worth crashing on; tenant-facing paths use TryFree so a hostile
// application's abuse is contained to an error it receives itself.
func (b *Buf) TryFree() error {
	if !b.AppOwned() {
		return ErrDoubleFree
	}
	b.Free()
	return nil
}

// IORef takes a library-OS reference on the buffer. The first reference
// sets the bitmap bit; further concurrent references are counted in the
// superblock's reference table, one counter per slot.
func (b *Buf) IORef() {
	if b.IOOwned() {
		b.sb.ioExtra[b.idx]++
		return
	}
	b.sb.ioRef |= b.bit()
}

// IOUnref drops one library-OS reference, recycling the slot if the
// application has also freed it.
func (b *Buf) IOUnref() {
	if !b.IOOwned() {
		panic("memory: IOUnref without reference (slot " + b.sb.refString(b.idx) + ")")
	}
	if b.sb.ioExtra[b.idx] > 0 {
		b.sb.ioExtra[b.idx]--
		return
	}
	b.sb.ioRef &^= b.bit()
	if !b.AppOwned() {
		b.sb.recycle(b.idx)
	}
}

// CopyFrom allocates a buffer on h holding a copy of p. It is the bridge
// from non-DMA memory (PDPIX requires all I/O be from the DMA heap).
func CopyFrom(h *Heap, p []byte) *Buf {
	b, err := TryCopyFrom(h, p)
	if err != nil {
		panic("memory: CopyFrom: " + err.Error())
	}
	return b
}

// TryCopyFrom is CopyFrom with pool exhaustion reported as ErrNoMem, so RX
// paths can drop a frame (TCP retransmit or the application retry recovers
// it) instead of dying with the heap.
func TryCopyFrom(h *Heap, p []byte) (*Buf, error) {
	size := len(p)
	if size == 0 {
		size = 1
	}
	b, err := h.TryAlloc(size)
	if err != nil {
		return nil, err
	}
	b.data = b.data[:len(p)]
	copy(b.data, p)
	return b, nil
}
