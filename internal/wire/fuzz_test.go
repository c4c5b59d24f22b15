package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"demikernel/internal/simnet"
)

// Parsers face attacker-controlled bytes from the wire: none may panic,
// whatever the input. quick.Check drives them with arbitrary buffers.

func TestParsersNeverPanicOnRandomBytes(t *testing.T) {
	src, dst := IPAddr{1, 2, 3, 4}, IPAddr{5, 6, 7, 8}
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		ParseEth(b)
		ParseIPv4(b)
		ParseARP(b)
		ParseUDP(b, src, dst)
		ParseTCP(b, src, dst)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Truncating a valid packet at every length must return an error or a
// consistent result — never a panic or an out-of-range slice.
func TestTCPTruncationSweep(t *testing.T) {
	src, dst := IPAddr{1, 1, 1, 1}, IPAddr{2, 2, 2, 2}
	h := TCPHeader{
		SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: TCPAck | TCPPsh, Window: 5,
		Opt: TCPOptions{MSS: 1460, WScale: 7, HasWScale: true, TSVal: 9, TSEcr: 10, HasTimestamp: true},
	}
	payload := []byte("0123456789abcdef")
	buf := make([]byte, h.MarshalLen()+len(payload))
	n := h.Marshal(buf, src, dst, payload)
	copy(buf[n:], payload)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := ParseTCP(buf[:cut], src, dst); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestIPv4TruncationSweep(t *testing.T) {
	h := IPv4Header{TotalLen: IPv4HeaderLen + 8, TTL: 4, Proto: ProtoUDP,
		Src: IPAddr{9, 9, 9, 9}, Dst: IPAddr{8, 8, 8, 8}}
	buf := make([]byte, int(h.TotalLen))
	h.Marshal(buf)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := ParseIPv4(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Malformed TCP option lengths (zero or overlong) must not loop or panic.
func TestTCPOptionMalformedLengths(t *testing.T) {
	src, dst := IPAddr{1, 1, 1, 1}, IPAddr{2, 2, 2, 2}
	base := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck}
	buf := make([]byte, TCPHeaderLen+8)
	base.Marshal(buf, src, dst, nil)
	buf[12] = byte((TCPHeaderLen + 8) / 4 << 4) // claim options present
	for _, optBytes := range [][]byte{
		{2, 0, 0, 0, 0, 0, 0, 0},   // MSS with length 0
		{3, 255, 0, 0, 0, 0, 0, 0}, // WScale overlong
		{8, 1, 0, 0, 0, 0, 0, 0},   // timestamp too short
		{99, 3, 1, 99, 3, 1, 0, 0}, // unknown kinds
	} {
		copy(buf[TCPHeaderLen:], optBytes)
		// Recompute the checksum so only the options are at fault.
		buf[16], buf[17] = 0, 0
		ck := TransportChecksum(src, dst, ProtoTCP, buf, nil)
		buf[16], buf[17] = byte(ck>>8), byte(ck)
		_, _, err := ParseTCP(buf, src, dst)
		_ = err // error or success both fine; no panic, no hang
	}
}

// FuzzParseFrame drives the parsers with whole Ethernet frames. Random bytes
// almost never carry a valid checksum, so TestParsersNeverPanicOnRandomBytes
// stops at the checksum check; this target first recomputes the IPv4 header
// checksum and the TCP or UDP checksum (a zero UDP checksum, "none", stays
// zero), so the fuzzer's bytes reach option and length parsing. No parser
// may panic, and a TCP or UDP header that parses must marshal back to bytes
// that parse to the same header and payload.
func FuzzParseFrame(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		frame = append([]byte(nil), frame...) // the checksums are fixed in place
		_, pkt, err := ParseEth(frame)
		if err != nil {
			return
		}
		ParseARP(pkt)
		if len(pkt) < IPv4HeaderLen {
			return
		}
		if ihl := int(pkt[0]&0xf) * 4; ihl >= IPv4HeaderLen && ihl <= len(pkt) {
			be.PutUint16(pkt[10:12], 0)
			be.PutUint16(pkt[10:12], Checksum(pkt[:ihl]))
		}
		ip, seg, err := ParseIPv4(pkt)
		if err != nil {
			return
		}
		switch ip.Proto {
		case ProtoTCP:
			if len(seg) >= TCPHeaderLen {
				if hlen := int(seg[12]>>4) * 4; hlen >= TCPHeaderLen && hlen <= len(seg) {
					be.PutUint16(seg[16:18], 0)
					be.PutUint16(seg[16:18], TransportChecksum(ip.Src, ip.Dst, ProtoTCP, seg[:hlen], seg[hlen:]))
				}
			}
			h, payload, err := ParseTCP(seg, ip.Src, ip.Dst)
			if err != nil {
				return
			}
			out := make([]byte, h.MarshalLen()+len(payload))
			n := h.Marshal(out, ip.Src, ip.Dst, payload)
			copy(out[n:], payload)
			h2, payload2, err := ParseTCP(out, ip.Src, ip.Dst)
			if err != nil || h2 != h || !bytes.Equal(payload2, payload) {
				t.Fatalf("TCP %+v with %d payload bytes re-marshalled to %x: parsed back as %+v, %d bytes, %v", h, len(payload), out, h2, len(payload2), err)
			}
		case ProtoUDP:
			if len(seg) >= UDPHeaderLen && be.Uint16(seg[6:8]) != 0 {
				if l := int(be.Uint16(seg[4:6])); l >= UDPHeaderLen && l <= len(seg) {
					be.PutUint16(seg[6:8], 0)
					ck := TransportChecksum(ip.Src, ip.Dst, ProtoUDP, seg[:UDPHeaderLen], seg[UDPHeaderLen:l])
					if ck == 0 {
						ck = 0xffff
					}
					be.PutUint16(seg[6:8], ck)
				}
			}
			h, payload, err := ParseUDP(seg, ip.Src, ip.Dst)
			if err != nil {
				return
			}
			out := make([]byte, UDPHeaderLen+len(payload))
			h.Marshal(out, ip.Src, ip.Dst, payload)
			copy(out[UDPHeaderLen:], payload)
			h2, payload2, err := ParseUDP(out, ip.Src, ip.Dst)
			if err != nil || h2 != h || !bytes.Equal(payload2, payload) {
				t.Fatalf("UDP %+v with %d payload bytes re-marshalled to %x: parsed back as %+v, %d bytes, %v", h, len(payload), out, h2, len(payload2), err)
			}
		}
	})
}

// seedFrames are the frames the stacks emit: a TCP SYN carrying every
// option Catnip sends, a data segment with timestamps, a UDP datagram and
// an ARP request.
func seedFrames() [][]byte {
	src, dst := IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	eth := func(typ uint16, body []byte) []byte {
		h := EthHeader{Dst: simnet.MAC{2, 0, 0, 0, 0, 2}, Src: simnet.MAC{2, 0, 0, 0, 0, 1}, EtherType: typ}
		b := make([]byte, EthHeaderLen+len(body))
		h.Marshal(b)
		copy(b[EthHeaderLen:], body)
		return b
	}
	ipv4 := func(proto uint8, seg []byte) []byte {
		h := IPv4Header{TotalLen: uint16(IPv4HeaderLen + len(seg)), TTL: 64, Flags: DontFragment, Proto: proto, Src: src, Dst: dst}
		b := make([]byte, IPv4HeaderLen+len(seg))
		h.Marshal(b)
		copy(b[IPv4HeaderLen:], seg)
		return eth(EtherTypeIPv4, b)
	}
	tcp := func(h TCPHeader, payload []byte) []byte {
		b := make([]byte, h.MarshalLen()+len(payload))
		n := h.Marshal(b, src, dst, payload)
		copy(b[n:], payload)
		return ipv4(ProtoTCP, b)
	}
	syn := TCPHeader{SrcPort: 49152, DstPort: 80, Seq: 1, Flags: TCPSyn, Window: 65535,
		Opt: TCPOptions{MSS: 1460, WScale: 7, HasWScale: true, TSVal: 1, HasTimestamp: true}}
	data := TCPHeader{SrcPort: 49152, DstPort: 80, Seq: 2, Ack: 9, Flags: TCPAck | TCPPsh, Window: 512,
		Opt: TCPOptions{TSVal: 2, TSEcr: 1, HasTimestamp: true}}
	payload := []byte("GET / HTTP/1.0\r\n\r\n")
	udpPayload := []byte("ping")
	u := UDPHeader{SrcPort: 5000, DstPort: 6000, Length: uint16(UDPHeaderLen + len(udpPayload))}
	ub := make([]byte, UDPHeaderLen+len(udpPayload))
	u.Marshal(ub, src, dst, udpPayload)
	copy(ub[UDPHeaderLen:], udpPayload)
	arp := ARPHeader{Op: ARPRequest, SenderHW: simnet.MAC{2, 0, 0, 0, 0, 1}, SenderIP: src, TargetIP: dst}
	ab := make([]byte, ARPHeaderLen)
	arp.Marshal(ab)
	return [][]byte{tcp(syn, nil), tcp(data, payload), ipv4(ProtoUDP, ub), eth(EtherTypeARP, ab)}
}
