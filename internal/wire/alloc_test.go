package wire

import (
	"errors"
	"testing"

	"demikernel/internal/simnet"
)

// TestCodecAllocs holds every codec to zero Go heap allocations per packet,
// on a valid input and on one malformed input per error return: a parser
// that builds its error (fmt.Errorf) instead of returning a sentinel
// allocates on exactly the frames a fault soak feeds it.
func TestCodecAllocs(t *testing.T) {
	src, dst := IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	payload := []byte("payload bytes")

	eth := EthHeader{Dst: simnet.MAC{1, 2, 3, 4, 5, 6}, Src: simnet.MAC{6, 5, 4, 3, 2, 1}, EtherType: EtherTypeIPv4}
	ethBuf := make([]byte, EthHeaderLen)
	eth.Marshal(ethBuf)

	arp := ARPHeader{Op: ARPReply, SenderHW: eth.Src, TargetHW: eth.Dst, SenderIP: src, TargetIP: dst}
	arpBuf := make([]byte, ARPHeaderLen)
	arp.Marshal(arpBuf)

	ip := IPv4Header{TotalLen: IPv4HeaderLen + uint16(len(payload)), TTL: 64, Proto: ProtoUDP, Src: src, Dst: dst}
	ipPkt := append(make([]byte, IPv4HeaderLen), payload...)
	ip.Marshal(ipPkt)
	ipVersion := append([]byte(nil), ipPkt...)
	ipVersion[0] = 0x65
	ipIHL := append([]byte(nil), ipPkt...)
	ipIHL[0] = 0x44
	ipCorrupt := append([]byte(nil), ipPkt...)
	ipCorrupt[8]++
	ipLong := append([]byte(nil), ipPkt...)
	ipLongHdr := ip
	ipLongHdr.TotalLen = uint16(len(ipPkt) + 1)
	ipLongHdr.Marshal(ipLong)

	udp := UDPHeader{SrcPort: 1000, DstPort: 2000, Length: UDPHeaderLen + uint16(len(payload))}
	udpSeg := append(make([]byte, UDPHeaderLen), payload...)
	udp.Marshal(udpSeg, src, dst, payload)
	udpLen := append([]byte(nil), udpSeg...)
	be.PutUint16(udpLen[4:6], uint16(len(udpSeg)+1))
	udpCorrupt := append([]byte(nil), udpSeg...)
	udpCorrupt[len(udpCorrupt)-1]++

	tcp := TCPHeader{SrcPort: 1000, DstPort: 2000, Seq: 7, Ack: 9, Flags: TCPSyn | TCPAck, Window: 4096,
		Opt: TCPOptions{MSS: 1460, WScale: 7, HasWScale: true, TSVal: 11, TSEcr: 13, HasTimestamp: true}}
	tcpSeg := make([]byte, tcp.MarshalLen()+len(payload))
	copy(tcpSeg[tcp.MarshalLen():], payload)
	tcp.Marshal(tcpSeg, src, dst, payload)
	tcpHlen := append([]byte(nil), tcpSeg...)
	tcpHlen[12] = 4 << 4
	tcpCorrupt := append([]byte(nil), tcpSeg...)
	tcpCorrupt[len(tcpCorrupt)-1]++
	// An MSS option whose length byte runs past the options block, with the
	// checksum fixed so parsing reaches the options.
	badOpt := TCPHeader{SrcPort: 1, DstPort: 2, Opt: TCPOptions{MSS: 536}}
	tcpBadOpt := make([]byte, badOpt.MarshalLen())
	badOpt.Marshal(tcpBadOpt, src, dst, nil)
	tcpBadOpt[TCPHeaderLen+1] = 40
	be.PutUint16(tcpBadOpt[16:18], 0)
	be.PutUint16(tcpBadOpt[16:18], TransportChecksum(src, dst, ProtoTCP, tcpBadOpt, nil))

	trailer := make([]byte, TraceTrailerLen+LoadTrailerLen)
	PutTraceTrailer(trailer, 42)
	PutLoadTrailer(trailer[TraceTrailerLen:], 3, 17)
	noTrailer := make([]byte, TraceTrailerLen+LoadTrailerLen)

	scratch := make([]byte, 128)
	errBool := errors.New("codec reported the wrong outcome")
	check := func(ok bool) error {
		if !ok {
			return errBool
		}
		return nil
	}

	for _, tc := range []struct {
		name    string
		wantErr error // nil: the call succeeds
		fn      func() error
	}{
		{"EthHeader.Marshal", nil, func() error { return check(eth.Marshal(scratch) == EthHeaderLen) }},
		{"ParseEth", nil, func() error { _, _, err := ParseEth(ethBuf); return err }},
		{"ParseEth truncated", ErrTruncated, func() error { _, _, err := ParseEth(ethBuf[:EthHeaderLen-1]); return err }},

		{"ARPHeader.Marshal", nil, func() error { return check(arp.Marshal(scratch) == ARPHeaderLen) }},
		{"ParseARP", nil, func() error { _, err := ParseARP(arpBuf); return err }},
		{"ParseARP truncated", ErrTruncated, func() error { _, err := ParseARP(arpBuf[:ARPHeaderLen-1]); return err }},

		{"IPv4Header.Marshal", nil, func() error { return check(ip.Marshal(scratch) == IPv4HeaderLen) }},
		{"ParseIPv4", nil, func() error { _, _, err := ParseIPv4(ipPkt); return err }},
		{"ParseIPv4 truncated", ErrTruncated, func() error { _, _, err := ParseIPv4(ipPkt[:IPv4HeaderLen-1]); return err }},
		{"ParseIPv4 not IPv4", errNotIPv4, func() error { _, _, err := ParseIPv4(ipVersion); return err }},
		{"ParseIPv4 short IHL", ErrTruncated, func() error { _, _, err := ParseIPv4(ipIHL); return err }},
		{"ParseIPv4 bad checksum", errBadIPChecksum, func() error { _, _, err := ParseIPv4(ipCorrupt); return err }},
		{"ParseIPv4 TotalLen past the frame", ErrTruncated, func() error { _, _, err := ParseIPv4(ipLong); return err }},

		{"UDPHeader.Marshal", nil, func() error { return check(udp.Marshal(scratch, src, dst, payload) == UDPHeaderLen) }},
		{"ParseUDP", nil, func() error { _, _, err := ParseUDP(udpSeg, src, dst); return err }},
		{"ParseUDP truncated", ErrTruncated, func() error { _, _, err := ParseUDP(udpSeg[:UDPHeaderLen-1], src, dst); return err }},
		{"ParseUDP length past the segment", ErrTruncated, func() error { _, _, err := ParseUDP(udpLen, src, dst); return err }},
		{"ParseUDP bad checksum", errBadChecksum, func() error { _, _, err := ParseUDP(udpCorrupt, src, dst); return err }},

		{"TCPHeader.Marshal", nil, func() error { return check(tcp.Marshal(scratch, src, dst, payload) == tcp.MarshalLen()) }},
		{"ParseTCP", nil, func() error { _, _, err := ParseTCP(tcpSeg, src, dst); return err }},
		{"ParseTCP truncated", ErrTruncated, func() error { _, _, err := ParseTCP(tcpSeg[:TCPHeaderLen-1], src, dst); return err }},
		{"ParseTCP short data offset", ErrTruncated, func() error { _, _, err := ParseTCP(tcpHlen, src, dst); return err }},
		{"ParseTCP bad checksum", errBadChecksum, func() error { _, _, err := ParseTCP(tcpCorrupt, src, dst); return err }},
		{"ParseTCP option past the header", ErrTruncated, func() error { _, _, err := ParseTCP(tcpBadOpt, src, dst); return err }},

		{"PutTraceTrailer", nil, func() error { PutTraceTrailer(scratch, 42); return nil }},
		{"ParseTraceTrailer", nil, func() error { return check(ParseTraceTrailer(trailer) == 42) }},
		{"ParseTraceTrailer absent", nil, func() error { return check(ParseTraceTrailer(noTrailer) == 0) }},
		{"PutLoadTrailer", nil, func() error { PutLoadTrailer(scratch, 3, 17); return nil }},
		{"ParseLoadTrailer", nil, func() error { s, o, ok := ParseLoadTrailer(trailer); return check(ok && s == 3 && o == 17) }},
		{"ParseLoadTrailer short", nil, func() error { _, _, ok := ParseLoadTrailer(trailer[:LoadTrailerLen-1]); return check(!ok) }},
		{"ParseLoadTrailer absent", nil, func() error { _, _, ok := ParseLoadTrailer(noTrailer); return check(!ok) }},
		{"StripLoadTrailer", nil, func() error { b, ok := StripLoadTrailer(trailer); return check(ok && len(b) == TraceTrailerLen) }},
		{"StripLoadTrailer absent", nil, func() error { b, ok := StripLoadTrailer(noTrailer); return check(!ok && len(b) == len(noTrailer)) }},
	} {
		if err := tc.fn(); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: returned %v, want %v", tc.name, err, tc.wantErr)
			continue
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.fn() }); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
