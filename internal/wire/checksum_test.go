package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// refSum16 is the word-at-a-time loop sum16 replaced, kept as the reference
// the wide version is checked against.
func refSum16(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(be.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

// sweepSources are the contents TestSum16MatchesReference sweeps and
// FuzzSum16 starts from: random bytes, all 0xff (every lane carries on every
// add) and all zero.
func sweepSources() [][]byte {
	random := make([]byte, 2048+8)
	rand.New(rand.NewSource(1)).Read(random)
	ones := bytes.Repeat([]byte{0xff}, len(random))
	zeros := make([]byte, len(random))
	return [][]byte{random, ones, zeros}
}

// TestSum16MatchesReference sweeps every length up to 2048 at every start
// offset within a word, over sweepSources, seeded with accumulators as the
// pseudo-header leaves them.
func TestSum16MatchesReference(t *testing.T) {
	for _, src := range sweepSources() {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 2048; n++ {
				b := src[off : off+n]
				for _, acc := range []uint32{0, 0x1fffe, 0x2fffd} {
					got, want := finish(sum16(b, acc)), finish(refSum16(b, acc))
					if got != want {
						t.Fatalf("len %d off %d acc %#x: checksum %#04x, reference %#04x", n, off, acc, got, want)
					}
				}
				if got := sum16(b, 0); got >= 1<<18 {
					t.Fatalf("len %d off %d: partial sum %#x not folded", n, off, got)
				}
			}
		}
	}
}

// FuzzSum16 is the sweep without its limits: any bytes, summed in two pieces
// split at any even offset and chained through acc the way TransportChecksum
// chains header and payload, must give the reference's checksum, a partial
// sum folded below 2^18, and zero only for all-zero input. The seeds are
// points of the sweep around every boundary of the loop.
func FuzzSum16(f *testing.F) {
	for _, src := range sweepSources() {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 71, 72, 127, 128, 129, 1460, 2048} {
			f.Add(src[n%8:n%8+n], uint16(n/2), uint32(0x1fffe))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, split uint16, acc uint32) {
		if len(b) > 1<<16 {
			b = b[:1<<16] // an IPv4 packet's worth: the 32-bit reference cannot overflow
		}
		acc &= 1<<18 - 1 // what a caller can have: an earlier partial sum
		at := int(split) &^ 1
		if at > len(b) {
			at = len(b) &^ 1
		}
		got := sum16(b[at:], sum16(b[:at], acc))
		if want := refSum16(b, acc); finish(got) != finish(want) {
			t.Fatalf("len %d split %d acc %#x: checksum %#04x, reference %#04x", len(b), at, acc, finish(got), finish(want))
		}
		if got >= 1<<18 {
			t.Fatalf("len %d split %d acc %#x: partial sum %#x not folded", len(b), at, acc, got)
		}
		if zero := len(bytes.Trim(b, "\x00")) == 0; (sum16(b, 0) == 0) != zero {
			t.Fatalf("len %d: partial sum %#x, input all zero: %v", len(b), sum16(b, 0), zero)
		}
	})
}

// TestTransportChecksumRoundTrip stamps the checksum a sender would and
// verifies it as a receiver would, for payload sizes around every loop
// boundary, and checks a flipped bit is caught.
func TestTransportChecksumRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, dst := IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	for n := 0; n <= 1500; n++ {
		hdr := make([]byte, TCPHeaderLen)
		payload := make([]byte, n)
		rng.Read(hdr)
		rng.Read(payload)
		hdr[16], hdr[17] = 0, 0
		sum := TransportChecksum(src, dst, ProtoTCP, hdr, payload)
		if want := finish(refSum16(payload, refSum16(hdr, pseudoHeaderSum(src, dst, ProtoTCP, len(hdr)+n)))); sum != want {
			t.Fatalf("payload %d: checksum %#04x, reference %#04x", n, sum, want)
		}
		be.PutUint16(hdr[16:], sum)
		if !VerifyTransportChecksum(src, dst, ProtoTCP, hdr, payload) {
			t.Fatalf("payload %d: own checksum does not verify", n)
		}
		if n > 0 {
			payload[rng.Intn(n)] ^= 1 << rng.Intn(8)
			if VerifyTransportChecksum(src, dst, ProtoTCP, hdr, payload) {
				t.Fatalf("payload %d: flipped bit not detected", n)
			}
		}
	}
}

func BenchmarkChecksum1460(b *testing.B) {
	seg := make([]byte, 1460)
	rand.New(rand.NewSource(3)).Read(seg)
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += Checksum(seg)
	}
	_ = sink
}
