package wire

// Checksum computes the RFC 1071 internet checksum over b: the one's
// complement of the one's-complement sum of 16-bit words. A buffer with a
// valid embedded checksum sums to zero.
//
//demi:nonalloc wire codecs run per packet
func Checksum(b []byte) uint16 {
	return finish(sum16(b, 0))
}

// sum16 accumulates the one's-complement sum of b into acc. Odd trailing
// bytes are padded with zero, per the RFC.
//
// The bulk goes eight bytes at a time, four loads a step: a big-endian
// uint64 is four 16-bit words, and since 2^16 ≡ 1 (mod 0xffff) its two
// 32-bit halves can be summed whole and folded once at the end (RFC 1071
// §2(C)); the last 0–31 bytes go a word at a time. The result is folded
// below 2^18, so callers can keep adding to it, and is zero only for
// all-zero input, as the word-at-a-time sum is.
//
//demi:nonalloc wire codecs run per packet
func sum16(b []byte, acc uint32) uint32 {
	sum := uint64(acc)
	for len(b) >= 32 {
		v0, v1, v2, v3 := be.Uint64(b), be.Uint64(b[8:]), be.Uint64(b[16:]), be.Uint64(b[24:])
		sum += v0>>32 + v0&0xffffffff + v1>>32 + v1&0xffffffff +
			v2>>32 + v2&0xffffffff + v3>>32 + v3&0xffffffff
		b = b[32:]
	}
	for len(b) >= 2 {
		sum += uint64(be.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	return uint32(sum)
}

// finish folds carries and complements the accumulator.
//
//demi:nonalloc wire codecs run per packet
func finish(acc uint32) uint16 {
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return ^uint16(acc)
}

// pseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header.
//
//demi:nonalloc wire codecs run per packet
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
//
//demi:nonalloc wire codecs run per packet
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
//
//demi:nonalloc wire codecs run per packet
func VerifyTransportChecksum(src, dst IPAddr, proto uint8, hdr, payload []byte) bool {
	acc := pseudoHeaderSum(src, dst, proto, len(hdr)+len(payload))
	acc = sum16(hdr, acc)
	acc = sum16(payload, acc)
	return finish(acc) == 0
}
