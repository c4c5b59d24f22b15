// Package catloop is the TCP-loopback library OS: real Catnip TCP state
// machines on one host, joined by a fabric that models an in-process wire
// instead of a NIC and a switch. It is the POSIX-compatible counterpart to
// catmem for co-located services — the same sockets, handshakes,
// retransmission timers and congestion control as cross-host Catnip, but a
// frame's one hop costs a memcpy and a wakeup rather than PCIe and a switch.
//
// Architecturally this is the control experiment for the service-chain
// benchmark: catmem shows what intra-host communication costs when the
// transport knows the peer shares memory; catloop shows what the same chain
// pays for keeping the network abstraction. The delta is the price of
// protocol generality.
package catloop

import (
	"demikernel/internal/catnip"
	"demikernel/internal/costmodel"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// Hub is the in-process wire: a simnet switch whose one hop costs the
// loopback latency, with every stack on a dpdkdev port joined by a link that
// costs nothing.
type Hub struct {
	sw   *simnet.Switch
	libs []*LibOS
}

// NewHub returns an empty loopback hub on eng.
func NewHub(eng *sim.Engine) *Hub {
	return &Hub{sw: simnet.NewSwitch(eng, simnet.SwitchParams{Latency: costmodel.LoopbackWire})}
}

// LibOS is a Catnip instance bound to the loopback hub. It embeds the full
// stack — applications use it exactly like cross-host Catnip.
type LibOS struct {
	*catnip.LibOS
	port *dpdkdev.Port
}

// New attaches a new TCP-loopback instance for node to the hub. ARP is
// seeded both ways with every existing instance: co-located processes
// share a neighbor table by construction, so no resolution traffic flows.
func New(hub *Hub, node *sim.Node, ip wire.IPAddr) *LibOS {
	port := dpdkdev.Attach(hub.sw, node, simnet.LinkParams{}, 1<<16, 0)
	l := &LibOS{LibOS: catnip.New(node, port, catnip.DefaultConfig(ip)), port: port}
	for _, peer := range hub.libs {
		l.SeedARP(peer.IP(), peer.port.MAC())
		peer.SeedARP(ip, port.MAC())
	}
	hub.libs = append(hub.libs, l)
	return l
}

// Interface conformance: Catloop inherits the full PDPIX surface from the
// embedded Catnip stack.
var (
	_ demi.LibOS    = (*LibOS)(nil)
	_ demi.Drivable = (*LibOS)(nil)
)
