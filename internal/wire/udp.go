package wire

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
}

// Marshal writes the header into b (>= UDPHeaderLen), computing the
// checksum over the pseudo-header and payload, and returns the bytes
// consumed.
func (h *UDPHeader) Marshal(b []byte, src, dst IPAddr, payload []byte) int {
	be.PutUint16(b[0:2], h.SrcPort)
	be.PutUint16(b[2:4], h.DstPort)
	be.PutUint16(b[4:6], h.Length)
	be.PutUint16(b[6:8], 0)
	ck := TransportChecksum(src, dst, ProtoUDP, b[:UDPHeaderLen], payload)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	be.PutUint16(b[6:8], ck)
	return UDPHeaderLen
}

// ParseUDP parses a UDP header, verifies the checksum (unless zero) and
// returns the header and payload trimmed to the UDP length.
func ParseUDP(b []byte, src, dst IPAddr) (UDPHeader, []byte, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, nil, ErrTruncated
	}
	var h UDPHeader
	h.SrcPort = be.Uint16(b[0:2])
	h.DstPort = be.Uint16(b[2:4])
	h.Length = be.Uint16(b[4:6])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return UDPHeader{}, nil, ErrTruncated
	}
	payload := b[UDPHeaderLen:h.Length]
	if be.Uint16(b[6:8]) != 0 {
		if !VerifyTransportChecksum(src, dst, ProtoUDP, b[:UDPHeaderLen], payload) {
			return UDPHeader{}, nil, errBadChecksum
		}
	}
	return h, payload, nil
}
