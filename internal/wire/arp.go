package wire

import "demikernel/internal/simnet"

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPHeaderLen is the length of an IPv4-over-Ethernet ARP packet.
const ARPHeaderLen = 28

// ARPHeader is an IPv4-over-Ethernet ARP packet.
type ARPHeader struct {
	Op                 uint16
	SenderHW, TargetHW simnet.MAC
	SenderIP, TargetIP IPAddr
}

// Marshal writes the packet into b (>= ARPHeaderLen) and returns the bytes
// consumed.
func (h *ARPHeader) Marshal(b []byte) int {
	be.PutUint16(b[0:2], 1)      // hardware type: Ethernet
	be.PutUint16(b[2:4], 0x0800) // protocol type: IPv4
	b[4] = 6                     // hardware address length
	b[5] = 4                     // protocol address length
	be.PutUint16(b[6:8], h.Op)
	copy(b[8:14], h.SenderHW[:])
	copy(b[14:18], h.SenderIP[:])
	copy(b[18:24], h.TargetHW[:])
	copy(b[24:28], h.TargetIP[:])
	return ARPHeaderLen
}

// ParseARP parses an ARP packet.
func ParseARP(b []byte) (ARPHeader, error) {
	if len(b) < ARPHeaderLen {
		return ARPHeader{}, ErrTruncated
	}
	var h ARPHeader
	h.Op = be.Uint16(b[6:8])
	copy(h.SenderHW[:], b[8:14])
	copy(h.SenderIP[:], b[14:18])
	copy(h.TargetHW[:], b[18:24])
	copy(h.TargetIP[:], b[24:28])
	return h, nil
}
