package wire

import "errors"

var (
	errBadChecksum   = errors.New("wire: bad transport checksum")
	errBadIPChecksum = errors.New("wire: bad IPv4 header checksum")
	errNotIPv4       = errors.New("wire: not an IPv4 packet")
)

// IsChecksumError reports whether err indicates a corrupted IPv4 header or
// transport checksum (as opposed to truncation), so RX paths can count
// corruption drops separately from malformed frames.
func IsChecksumError(err error) bool {
	return errors.Is(err, errBadChecksum) || errors.Is(err, errBadIPChecksum)
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCPHeaderLen is the length of an option-free TCP header.
const TCPHeaderLen = 20

// TCP option kinds the stack understands (RFC 793 + RFC 7323).
const (
	tcpOptEnd       = 0
	tcpOptNop       = 1
	tcpOptMSS       = 2
	tcpOptWScale    = 3
	tcpOptTimestamp = 8
)

// TCPOptions carries the parsed options Catnip uses. Zero values mean
// "absent" (flagged explicitly where zero is meaningful).
type TCPOptions struct {
	MSS          uint16 // maximum segment size (SYN only); 0 = absent
	WScale       uint8  // window scale shift (SYN only)
	HasWScale    bool
	TSVal, TSEcr uint32 // RFC 7323 timestamps
	HasTimestamp bool
}

// TCPHeader is a TCP header plus parsed options.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Urgent           uint16
	Opt              TCPOptions
}

// optLen returns the encoded, padded length of the options block.
func (h *TCPHeader) optLen() int {
	n := 0
	if h.Opt.MSS != 0 {
		n += 4
	}
	if h.Opt.HasWScale {
		n += 3
	}
	if h.Opt.HasTimestamp {
		n += 10
	}
	return (n + 3) &^ 3 // pad to a 4-byte boundary
}

// MarshalLen returns the total header length including options.
func (h *TCPHeader) MarshalLen() int { return TCPHeaderLen + h.optLen() }

// Marshal writes the header (with options and checksum) into b, which must
// be at least MarshalLen bytes, and returns the bytes consumed.
func (h *TCPHeader) Marshal(b []byte, src, dst IPAddr, payload []byte) int {
	hlen := h.MarshalLen()
	be.PutUint16(b[0:2], h.SrcPort)
	be.PutUint16(b[2:4], h.DstPort)
	be.PutUint32(b[4:8], h.Seq)
	be.PutUint32(b[8:12], h.Ack)
	b[12] = uint8(hlen/4) << 4
	b[13] = h.Flags
	be.PutUint16(b[14:16], h.Window)
	be.PutUint16(b[16:18], 0) // checksum, filled below
	be.PutUint16(b[18:20], h.Urgent)
	o := b[TCPHeaderLen:hlen]
	for i := range o {
		o[i] = tcpOptNop
	}
	i := 0
	if h.Opt.MSS != 0 {
		o[i], o[i+1] = tcpOptMSS, 4
		be.PutUint16(o[i+2:i+4], h.Opt.MSS)
		i += 4
	}
	if h.Opt.HasWScale {
		o[i], o[i+1], o[i+2] = tcpOptWScale, 3, h.Opt.WScale
		i += 3
	}
	if h.Opt.HasTimestamp {
		o[i], o[i+1] = tcpOptTimestamp, 10
		be.PutUint32(o[i+2:i+6], h.Opt.TSVal)
		be.PutUint32(o[i+6:i+10], h.Opt.TSEcr)
	}
	ck := TransportChecksum(src, dst, ProtoTCP, b[:hlen], payload)
	be.PutUint16(b[16:18], ck)
	return hlen
}

// ParseTCP parses a TCP header with options, verifies the checksum, and
// returns the header and payload.
func ParseTCP(b []byte, src, dst IPAddr) (TCPHeader, []byte, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, nil, ErrTruncated
	}
	hlen := int(b[12]>>4) * 4
	if hlen < TCPHeaderLen || len(b) < hlen {
		return TCPHeader{}, nil, ErrTruncated
	}
	if !VerifyTransportChecksum(src, dst, ProtoTCP, b[:hlen], b[hlen:]) {
		return TCPHeader{}, nil, errBadChecksum
	}
	var h TCPHeader
	h.SrcPort = be.Uint16(b[0:2])
	h.DstPort = be.Uint16(b[2:4])
	h.Seq = be.Uint32(b[4:8])
	h.Ack = be.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = be.Uint16(b[14:16])
	h.Urgent = be.Uint16(b[18:20])
	if err := parseTCPOptions(b[TCPHeaderLen:hlen], &h.Opt); err != nil {
		return TCPHeader{}, nil, err
	}
	return h, b[hlen:], nil
}

func parseTCPOptions(o []byte, opt *TCPOptions) error {
	for len(o) > 0 {
		switch o[0] {
		case tcpOptEnd:
			return nil
		case tcpOptNop:
			o = o[1:]
			continue
		}
		if len(o) < 2 || int(o[1]) < 2 || int(o[1]) > len(o) {
			return ErrTruncated
		}
		kind, l := o[0], int(o[1])
		body := o[2:l]
		switch kind {
		case tcpOptMSS:
			if len(body) == 2 {
				opt.MSS = be.Uint16(body)
			}
		case tcpOptWScale:
			if len(body) == 1 {
				opt.WScale = body[0]
				opt.HasWScale = true
			}
		case tcpOptTimestamp:
			if len(body) == 8 {
				opt.TSVal = be.Uint32(body[0:4])
				opt.TSEcr = be.Uint32(body[4:8])
				opt.HasTimestamp = true
			}
		}
		o = o[l:]
	}
	return nil
}
