package wire

import "fmt"

// IPAddr is an IPv4 address.
type IPAddr [4]byte

// String formats the address in dotted-quad form.
func (a IPAddr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// Uint32 returns the address as a big-endian integer.
func (a IPAddr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IPFromUint32 builds an address from a big-endian integer.
func IPFromUint32(v uint32) IPAddr {
	return IPAddr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IsZero reports whether the address is 0.0.0.0.
func (a IPAddr) IsZero() bool { return a == IPAddr{} }

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// IPv4HeaderLen is the length of an options-free IPv4 header, the only kind
// the stacks emit.
const IPv4HeaderLen = 20

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16 // header + payload
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word (DF = 0b010)
	FragOff  uint16
	TTL      uint8
	Proto    uint8
	Src, Dst IPAddr
}

// DontFragment is the DF bit in Flags.
const DontFragment = 0b010

// Marshal writes the header into b (>= IPv4HeaderLen bytes), computing the
// header checksum, and returns the bytes consumed.
func (h *IPv4Header) Marshal(b []byte) int {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	be.PutUint16(b[2:4], h.TotalLen)
	be.PutUint16(b[4:6], h.ID)
	be.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Proto
	be.PutUint16(b[10:12], 0)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	be.PutUint16(b[10:12], Checksum(b[:IPv4HeaderLen]))
	return IPv4HeaderLen
}

// ParseIPv4 parses an IPv4 header, validates version, length and checksum,
// and returns the header with its payload (trimmed to TotalLen).
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4Header{}, nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4Header{}, nil, errNotIPv4
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return IPv4Header{}, nil, ErrTruncated
	}
	if Checksum(b[:ihl]) != 0 {
		return IPv4Header{}, nil, errBadIPChecksum
	}
	var h IPv4Header
	h.TOS = b[1]
	h.TotalLen = be.Uint16(b[2:4])
	h.ID = be.Uint16(b[4:6])
	frag := be.Uint16(b[6:8])
	h.Flags = uint8(frag >> 13)
	h.FragOff = frag & 0x1fff
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(b) {
		return IPv4Header{}, nil, ErrTruncated
	}
	return h, b[ihl:h.TotalLen], nil
}
