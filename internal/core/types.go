// Package core defines PDPIX, Demikernel's portable datapath interface
// (paper §4.2, Figure 2): queue descriptors instead of file descriptors,
// complete I/O operations via push/pop returning qtokens, wait/wait_any/
// wait_all instead of epoll, and scatter-gather arrays of DMA-capable
// buffers with explicit zero-copy ownership transfer.
//
// It also provides the shared machinery every library OS builds on: the
// qtoken table, the generic wait loop, and in-memory queues.
package core

import (
	"fmt"

	"demikernel/internal/memory"
	"demikernel/internal/wire"
)

// QDesc names an I/O queue: a socket, file, pipe or in-memory queue.
// PDPIX returns queue descriptors wherever POSIX returns file descriptors.
type QDesc int32

// InvalidQD is the zero value's invalid descriptor.
const InvalidQD QDesc = -1

// QToken names an outstanding asynchronous operation. Applications redeem
// qtokens with Wait/WaitAny/WaitAll for the operation's QEvent.
type QToken uint64

// InvalidQToken is returned alongside errors.
const InvalidQToken QToken = 0

// SockType selects the transport of a socket queue.
type SockType int

const (
	// SockStream is a connection-oriented byte/message stream (TCP on
	// Catnip, reliable messaging on Catmint).
	SockStream SockType = iota
	// SockDgram is unreliable datagram transport (UDP on Catnip).
	SockDgram
)

// Addr is a network endpoint.
type Addr struct {
	IP   wire.IPAddr
	Port uint16
}

// String formats the endpoint as ip:port.
func (a Addr) String() string { return fmt.Sprintf("%v:%d", a.IP, a.Port) }

// OpCode identifies the operation a QEvent completes.
type OpCode int

const (
	// OpInvalid marks the zero QEvent.
	OpInvalid OpCode = iota
	// OpPush completes a Push: buffer ownership returns to the app.
	OpPush
	// OpPop completes a Pop: the event carries received data.
	OpPop
	// OpAccept completes an Accept: the event carries the new queue.
	OpAccept
	// OpConnect completes a Connect.
	OpConnect
)

// String returns the opcode mnemonic.
func (o OpCode) String() string {
	switch o {
	case OpPush:
		return "push"
	case OpPop:
		return "pop"
	case OpAccept:
		return "accept"
	case OpConnect:
		return "connect"
	default:
		return "invalid"
	}
}

// QEvent is the completion of one asynchronous operation. Completions are
// the PDPIX transfer record: a pop's received buffers ride the event to the
// caller, who owns them on redemption.
type QEvent struct {
	QD    QDesc
	Op    OpCode
	SGA   SGArray // OpPop: the received data, owned by the application
	NewQD QDesc   // OpAccept/OpConnect: the connected queue
	From  Addr    // OpPop on unconnected datagram sockets: the sender
	Err   error   // operation-level failure (e.g. connection reset)
}

// SGArray is a scatter-gather array of DMA-capable buffers, the unit of
// PDPIX I/O. Push transfers ownership of every segment to the library OS
// until the operation completes; Pop returns segments owned by the caller.
type SGArray struct {
	Segs []*memory.Buf
}

// SGA builds a scatter-gather array from buffers.
func SGA(bufs ...*memory.Buf) SGArray { return SGArray{Segs: bufs} }

// TotalLen returns the summed length of all segments.
func (s SGArray) TotalLen() int {
	n := 0
	for _, b := range s.Segs {
		n += b.Len()
	}
	return n
}

// Flatten copies all segments into one contiguous byte slice. It is a
// convenience for tests and protocol layers that need contiguous views; the
// datapath avoids it where zero-copy matters.
func (s SGArray) Flatten() []byte {
	out := make([]byte, 0, s.TotalLen())
	for _, b := range s.Segs {
		out = append(out, b.Bytes()...)
	}
	return out
}

// Free releases every segment's application reference.
func (s SGArray) Free() {
	for _, b := range s.Segs {
		b.Free()
	}
}

// TraceCtx returns the distributed-trace context riding with the array (the
// first segment's tag), 0 when untraced or empty.
func (s SGArray) TraceCtx() uint64 {
	if len(s.Segs) == 0 || s.Segs[0] == nil {
		return 0
	}
	return s.Segs[0].TraceCtx()
}

// SetTraceCtx tags every segment with the distributed-trace context, so the
// tag survives whichever segment a downstream hop inspects.
func (s SGArray) SetTraceCtx(ctx uint64) {
	for _, b := range s.Segs {
		if b != nil {
			b.SetTraceCtx(ctx)
		}
	}
}
