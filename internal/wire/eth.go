// Package wire implements the wire formats Demikernel-Go's network stacks
// speak on the simulated fabric: Ethernet II, ARP, IPv4, UDP and TCP
// (including the RFC 7323 options Catnip uses). Headers marshal to and from
// byte slices with explicit offsets; there is no reflection or encoding
// framework on the datapath.
package wire

import (
	"encoding/binary"
	"errors"

	"demikernel/internal/simnet"
)

// be is the big-endian byte order used by every network header.
var be = binary.BigEndian

// le reads the checksum's wide loads; see sum16.
var le = binary.LittleEndian

// EtherType values used on the fabric.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	// EtherTypeRDMA carries the simulated RDMA NIC's transport frames
	// (analogous to RoCEv1's 0x8915).
	EtherTypeRDMA uint16 = 0x8915
)

// EthHeaderLen is the length of an Ethernet II header.
const EthHeaderLen = 14

// ErrTruncated is returned when a buffer is too short for the header being
// parsed.
var ErrTruncated = errors.New("wire: truncated packet")

// EthHeader is an Ethernet II header.
type EthHeader struct {
	Dst, Src  simnet.MAC
	EtherType uint16
}

// Marshal writes the header into b, which must be at least EthHeaderLen
// bytes, and returns the bytes consumed.
func (h *EthHeader) Marshal(b []byte) int {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	be.PutUint16(b[12:14], h.EtherType)
	return EthHeaderLen
}

// ParseEth parses an Ethernet header and returns it with the payload.
func ParseEth(b []byte) (EthHeader, []byte, error) {
	if len(b) < EthHeaderLen {
		return EthHeader{}, nil, ErrTruncated
	}
	var h EthHeader
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = be.Uint16(b[12:14])
	return h, b[EthHeaderLen:], nil
}
