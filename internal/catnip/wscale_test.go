package catnip

import (
	"testing"
	"time"

	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/trace"
	"demikernel/internal/wire"
)

// peerFrame builds the frame a peer at ipB:40000 with MAC from sends the
// stack at ipA:80 (MAC to).
func peerFrame(from, to simnet.MAC, h wire.TCPHeader, payload []byte) []byte {
	h.SrcPort, h.DstPort = 40000, 80
	tcp := make([]byte, h.MarshalLen())
	h.Marshal(tcp, ipB, ipA, payload)
	ip := wire.IPv4Header{TotalLen: uint16(wire.IPv4HeaderLen + len(tcp) + len(payload)), TTL: 64, Proto: wire.ProtoTCP, Src: ipB, Dst: ipA}
	frame := make([]byte, wire.EthHeaderLen+int(ip.TotalLen))
	eth := wire.EthHeader{Dst: to, Src: from, EtherType: wire.EtherTypeIPv4}
	n := eth.Marshal(frame)
	n += ip.Marshal(frame[n:])
	n += copy(frame[n:], tcp)
	copy(frame[n:], payload)
	return frame
}

// parseSent returns the TCP header of a frame the stack sent.
func parseSent(t *testing.T, frame []byte) wire.TCPHeader {
	t.Helper()
	_, packet, err := wire.ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	ip, body, err := wire.ParseIPv4(packet)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := wire.ParseTCP(body, ip.Src, ip.Dst)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// A peer's window-scale option is taken as RFC 7323 says. A shift over 14
// is used as 14 (§2.3), not as the 2³⁰-capped or zeroed window a bigger
// shift makes. A SYN without the option turns scaling off both ways (§2.2):
// the SYN-ACK carries none, and no window the stack advertises is shifted.
// Raw frames in, the stack's frames out of its tracer.
func TestWindowScaleOption(t *testing.T) {
	const peerWnd = 1000 // the window field of the peer's ACK
	for _, tc := range []struct {
		name   string
		opt    wire.TCPOptions // the peer SYN's
		scaled bool            // scaling is on
		shift  uint            // the send window is peerWnd << shift
	}{
		{"shift 20", wire.TCPOptions{MSS: 1460, WScale: 20, HasWScale: true}, true, 14},
		{"shift 255", wire.TCPOptions{MSS: 1460, WScale: 255, HasWScale: true}, true, 14},
		{"no option", wire.TCPOptions{MSS: 1460}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &trace.Log{}
			eng := sim.NewEngine(9)
			sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
			ns := eng.NewNode("server")
			ps := attachDefault(sw, ns)
			cfg := DefaultConfig(ipA)
			cfg.Tracer = log
			ls := New(ns, ps, cfg)
			peer := simnet.MAC{2, 0, 0, 0, 0, 9}
			eng.Spawn(ns, echoServer(t, ls, 80))

			const peerISS = 5000
			syn := wire.TCPHeader{Seq: peerISS, Flags: wire.TCPSyn, Window: 65535, Opt: tc.opt}
			eng.At(sim.Time(10*time.Microsecond), ns, func() { ps.InjectRx(peerFrame(peer, ps.MAC(), syn, nil)) })
			eng.At(sim.Time(100*time.Microsecond), ns, func() {
				synAck := parseSent(t, log.Filter(trace.TX)[0].Data)
				ack := wire.TCPHeader{Seq: peerISS + 1, Ack: synAck.Seq + 1, Flags: wire.TCPAck | wire.TCPPsh, Window: peerWnd}
				ps.InjectRx(peerFrame(peer, ps.MAC(), ack, []byte("ping")))
			})
			eng.At(sim.Time(2*time.Millisecond), nil, eng.Stop)
			eng.Run()

			sent := log.Filter(trace.TX)
			if len(sent) < 2 {
				t.Fatalf("the stack sent %d frames, want its SYN-ACK and more", len(sent))
			}
			if synAck := parseSent(t, sent[0].Data); synAck.Opt.HasWScale != tc.scaled {
				t.Errorf("SYN-ACK carries the window-scale option: %v, want %v", synAck.Opt.HasWScale, tc.scaled)
			}
			for _, f := range sent[1:] {
				// 256 KiB of receive buffer: 2 048 or a little less scaled by
				// 2⁷, the 16-bit field's maximum unscaled.
				if h := parseSent(t, f.Data); (h.Window < 0xffff) != tc.scaled {
					t.Errorf("segment at %v advertises window %d; scaled: %v", f.At, h.Window, tc.scaled)
				}
			}
			c := ls.conns[fourTuple{localPort: 80, remoteIP: ipB, remotePort: 40000}]
			if c == nil {
				t.Fatal("no connection for the peer")
			}
			if want := peerWnd << tc.shift; c.sndWnd != want {
				t.Errorf("send window %d after the peer advertised %d, want %d", c.sndWnd, peerWnd, want)
			}
		})
	}
}
