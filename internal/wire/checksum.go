package wire

import "math/bits"

// Checksum computes the RFC 1071 internet checksum over b: the one's
// complement of the one's-complement sum of 16-bit words. A buffer with a
// valid embedded checksum sums to zero.
func Checksum(b []byte) uint16 {
	return finish(sum16(b, 0))
}

// sum16 accumulates the one's-complement sum of b into acc. Odd trailing
// bytes are padded with zero, per the RFC.
//
// The sum does not depend on byte order (RFC 1071 §2(B)): adding the 16-bit
// words as the other endianness reads them gives the byte-swapped sum, and
// since 2^16 ≡ 1 (mod 0xffff) words may be added two, four or eight to a
// load (§2(C)). So b is read as little-endian uint64s — a plain load on the
// machines this runs on — 64 bytes a step into two independent chains of
// four add-with-carry each (bits.Add64 compiles to ADC; a chain's last carry
// rides into its next step, and two chains let one step's adds overlap the
// other's), then eight bytes at a time, then one load of each narrower
// width. Both chains and their last carries are folded to 16 bits and
// swapped once, into the big-endian word order acc is kept in.
//
// The result is folded below 2^18, so callers can keep adding to it, and is
// zero only for all-zero input and a zero acc, as the word-at-a-time sum is:
// an add that wraps to zero leaves its carry set, and a fold maps only zero
// to zero.
func sum16(b []byte, acc uint32) uint32 {
	var s0, s1, c0, c1 uint64
	for len(b) >= 64 {
		s0, c0 = bits.Add64(s0, le.Uint64(b), c0)
		s0, c0 = bits.Add64(s0, le.Uint64(b[8:]), c0)
		s0, c0 = bits.Add64(s0, le.Uint64(b[16:]), c0)
		s0, c0 = bits.Add64(s0, le.Uint64(b[24:]), c0)
		s1, c1 = bits.Add64(s1, le.Uint64(b[32:]), c1)
		s1, c1 = bits.Add64(s1, le.Uint64(b[40:]), c1)
		s1, c1 = bits.Add64(s1, le.Uint64(b[48:]), c1)
		s1, c1 = bits.Add64(s1, le.Uint64(b[56:]), c1)
		b = b[64:]
	}
	for len(b) >= 8 {
		s0, c0 = bits.Add64(s0, le.Uint64(b), c0)
		b = b[8:]
	}
	// Below 2^35 from here: halves of the chains, carries, and what is left
	// of b, a little-endian word at a time.
	sum := s0>>32 + s0&0xffffffff + s1>>32 + s1&0xffffffff + c0 + c1
	if len(b) >= 4 {
		sum += uint64(le.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(le.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) // the high byte of a big-endian word is the low byte of a little-endian one
	}
	sum = sum>>16 + sum&0xffff // below 2^20
	sum = sum>>16 + sum&0xffff // at most 0xffff + 0xf
	sum = sum>>16 + sum&0xffff
	sum = uint64(bits.ReverseBytes16(uint16(sum))) + uint64(acc)
	return uint32(sum>>16 + sum&0xffff)
}

// finish folds carries and complements the accumulator.
func finish(acc uint32) uint16 {
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return ^uint16(acc)
}

// pseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header.
func pseudoHeaderSum(src, dst IPAddr, proto uint8, length int) uint32 {
	var acc uint32
	acc = sum16(src[:], acc)
	acc = sum16(dst[:], acc)
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}

// TransportChecksum computes the UDP/TCP checksum over the pseudo-header,
// transport header and payload. The checksum field inside hdr must be zero.
func TransportChecksum(src, dst IPAddr, proto uint8, hdr, payload []byte) uint16 {
	acc := pseudoHeaderSum(src, dst, proto, len(hdr)+len(payload))
	acc = sum16(hdr, acc)
	// An odd-length header would misalign the payload sum; transport
	// headers are always even-length so this cannot happen.
	acc = sum16(payload, acc)
	return finish(acc)
}

// VerifyTransportChecksum reports whether the checksum embedded in hdr is
// consistent with the pseudo-header and payload.
func VerifyTransportChecksum(src, dst IPAddr, proto uint8, hdr, payload []byte) bool {
	acc := pseudoHeaderSum(src, dst, proto, len(hdr)+len(payload))
	acc = sum16(hdr, acc)
	acc = sum16(payload, acc)
	return finish(acc) == 0
}
