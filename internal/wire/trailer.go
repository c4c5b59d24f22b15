package wire

import "encoding/binary"

// Wire trailers ride after the IPv4 packet, in the slack between TotalLen
// and the frame's end. A parser that trims to TotalLen never sees them, so
// instrumented stacks interoperate byte-for-byte with untraced ones. Two
// trailers exist, each starting with a 2-byte magic:
//
//   - the distributed-trace trailer (dtrace): [0xD7 0xCE][8-byte trace ID],
//     appended by catnip when a request is sampled, peeled by the receiving
//     stack before protocol dispatch;
//   - the load-tracking trailer (rack): [0xD7 0xAD][server id][outstanding
//     count], appended to every reply a rack server sends, read and
//     stripped by the ToR switch model — the RackSched-style piggyback
//     channel that keeps the switch's per-server load estimates fresh.
//
// When both are present the layout is [IPv4 packet][trace][load]: the trace
// trailer sits at the fixed TotalLen offset (receivers parse it in place)
// and the load trailer sits at the very end of the frame (the ToR strips it
// by truncation, without touching the trace bytes).

// Trace trailer: [0xD7 0xCE][8-byte big-endian trace ID].
const (
	traceMagic0     = 0xD7
	traceMagic1     = 0xCE
	TraceTrailerLen = 10
)

// PutTraceTrailer writes the distributed-trace trailer for ctx into b
// (len(b) >= TraceTrailerLen).
func PutTraceTrailer(b []byte, ctx uint64) {
	b[0] = traceMagic0
	b[1] = traceMagic1
	binary.BigEndian.PutUint64(b[2:], ctx)
}

// ParseTraceTrailer returns the trace context from b, or 0 when b does not
// start with a trace trailer.
func ParseTraceTrailer(b []byte) uint64 {
	if len(b) < TraceTrailerLen || b[0] != traceMagic0 || b[1] != traceMagic1 {
		return 0
	}
	return binary.BigEndian.Uint64(b[2:])
}

// Load trailer: [0xD7 0xAD][2-byte server id][4-byte outstanding count],
// all big-endian. Always the last LoadTrailerLen bytes of the frame.
const (
	loadMagic0     = 0xD7
	loadMagic1     = 0xAD
	LoadTrailerLen = 8
)

// PutLoadTrailer writes the load-tracking trailer into b
// (len(b) >= LoadTrailerLen).
func PutLoadTrailer(b []byte, server uint16, outstanding uint32) {
	b[0] = loadMagic0
	b[1] = loadMagic1
	binary.BigEndian.PutUint16(b[2:], server)
	binary.BigEndian.PutUint32(b[4:], outstanding)
}

// ParseLoadTrailer reads a load trailer from the last LoadTrailerLen bytes
// of frame, reporting ok=false when none is present.
func ParseLoadTrailer(frame []byte) (server uint16, outstanding uint32, ok bool) {
	if len(frame) < LoadTrailerLen {
		return 0, 0, false
	}
	b := frame[len(frame)-LoadTrailerLen:]
	if b[0] != loadMagic0 || b[1] != loadMagic1 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(b[2:]), binary.BigEndian.Uint32(b[4:]), true
}

// StripLoadTrailer returns frame with its trailing load trailer removed,
// reporting whether one was present.
func StripLoadTrailer(frame []byte) ([]byte, bool) {
	if _, _, ok := ParseLoadTrailer(frame); !ok {
		return frame, false
	}
	return frame[:len(frame)-LoadTrailerLen], true
}
