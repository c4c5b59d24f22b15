package wire

import (
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

// TestSum16MatchesReference sweeps every length up to 2048 at every start
// offset within a word, over random and all-0xff contents (the latter makes
// every lane carry), seeded with accumulators as the pseudo-header leaves
// them.
func TestSum16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 2048+8)
	rng.Read(random)
	ones := make([]byte, len(random))
	for i := range ones {
		ones[i] = 0xff
	}
	zeros := make([]byte, len(random))
	for _, src := range [][]byte{random, ones, zeros} {
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
