package bench

import (
	"time"

	"demikernel/internal/baseline"
	"demikernel/internal/catmint"
	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
	"demikernel/internal/wire"
)

// Link profiles calibrated from the paper's own "native" floors (Figure 5):
// raw RDMA perftest RTT ≈ 3.4 µs and raw DPDK testpmd RTT ≈ 4.8 µs imply
// per-hop (NIC + PCIe + cable) latencies of ≈0.62 µs and ≈1.0 µs around a
// 450 ns switch. See EXPERIMENTS.md for the derivation.

// LinkDPDK is the CX-5 Ethernet path as seen by DPDK.
func LinkDPDK() simnet.LinkParams {
	return simnet.LinkParams{Latency: 1000 * time.Nanosecond, BandwidthBps: 100e9}
}

// LinkRDMA is the CX-5 path as seen by the RDMA engine (shallower on-NIC
// processing).
func LinkRDMA() simnet.LinkParams {
	return simnet.LinkParams{Latency: 620 * time.Nanosecond, BandwidthBps: 100e9}
}

// LinkIB56 is the Windows cluster's CX-4 56 Gbps InfiniBand (Figure 6a).
func LinkIB56() simnet.LinkParams {
	return simnet.LinkParams{Latency: 700 * time.Nanosecond, BandwidthBps: 56e9}
}

// SwitchEth is the Arista 7060CX (450 ns); SwitchIB the Mellanox SX6036
// (200 ns).
func SwitchEth() simnet.SwitchParams { return simnet.SwitchParams{Latency: 450 * time.Nanosecond} }
func SwitchIB() simnet.SwitchParams  { return simnet.SwitchParams{Latency: 200 * time.Nanosecond} }

// Testbed is one simulated cluster.
type Testbed struct {
	Eng  *sim.Engine
	Sw   *simnet.Switch
	Reg  *rdmadev.Registry
	Book *catmint.AddrBook

	// Ports and NICs collect every attached device in creation order so
	// experiments (chaos in particular) can reach under the stacks to
	// inject faults.
	Ports []*dpdkdev.Port
	NICs  []*rdmadev.NIC

	endpoints []endpoint
	catnips   []*catnip.LibOS
}

type endpoint struct {
	ip  wire.IPAddr
	mac simnet.MAC
}

// NewTestbed builds a cluster with the given switch profile.
func NewTestbed(seed uint64, sw simnet.SwitchParams) *Testbed {
	eng := sim.NewEngine(seed)
	s := simnet.NewSwitch(eng, sw)
	return &Testbed{
		Eng:  eng,
		Sw:   s,
		Reg:  rdmadev.NewRegistry(s),
		Book: catmint.NewAddrBook(),
	}
}

// Stack is one host's libOS under test. Port, NIC and Disk expose the
// stack's devices when it has them (nil otherwise) — fault-injection
// handles for the chaos experiments.
type Stack struct {
	OS   demi.LibOS
	Node *sim.Node
	IP   wire.IPAddr
	Port *dpdkdev.Port
	NIC  *rdmadev.NIC
	Disk *spdkdev.Device
}

// System describes one comparand: how to build its stack on a node.
type System struct {
	Name  string
	Dgram bool // echo over UDP instead of TCP
	// Storage requests a storage log device on every stack.
	Storage bool
	Build   func(tb *Testbed, node *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS
}

// named is s under the name a table prints for it.
func (s System) named(name string) System {
	s.Name = name
	return s
}

// NewStack builds a host running sys.
func (tb *Testbed) NewStack(sys System, name string, ip wire.IPAddr) *Stack {
	node := tb.Eng.NewNode(name)
	var stor demi.StorOS
	var disk *spdkdev.Device
	if sys.Storage {
		disk = spdkdev.New(node, spdkdev.OptaneParams(), 1<<20)
		stor = cattree.New(node, disk)
	}
	nPorts, nNICs := len(tb.Ports), len(tb.NICs)
	os := sys.Build(tb, node, ip, stor)
	st := &Stack{OS: os, Node: node, IP: ip, Disk: disk}
	if len(tb.Ports) > nPorts {
		st.Port = tb.Ports[len(tb.Ports)-1]
	}
	if len(tb.NICs) > nNICs {
		st.NIC = tb.NICs[len(tb.NICs)-1]
	}
	return st
}

// trackCatnip registers a Catnip instance (possibly nested) for ARP
// seeding and remembers the endpoint.
func (tb *Testbed) trackCatnip(l *catnip.LibOS, ip wire.IPAddr, mac simnet.MAC) {
	tb.catnips = append(tb.catnips, l)
	tb.endpoints = append(tb.endpoints, endpoint{ip: ip, mac: mac})
}

// SeedARP warms every Catnip ARP cache with every endpoint, the benchmark
// steady state (the paper measures warm fast paths).
func (tb *Testbed) SeedARP() {
	for _, l := range tb.catnips {
		for _, ep := range tb.endpoints {
			l.SeedARP(ep.ip, ep.mac)
		}
	}
}

// newDPDK attaches a DPDK port.
func (tb *Testbed) newDPDK(node *sim.Node, link simnet.LinkParams) *dpdkdev.Port {
	p := dpdkdev.Attach(tb.Sw, node, link, 1<<16, 0)
	tb.Ports = append(tb.Ports, p)
	return p
}

// newRDMA attaches an RDMA NIC.
func (tb *Testbed) newRDMA(node *sim.Node, link simnet.LinkParams) *rdmadev.NIC {
	n := tb.Reg.NewNIC(node, link, 0)
	tb.NICs = append(tb.NICs, n)
	return n
}

// combine wraps net (+ optional storage) into one LibOS.
func combine(net demi.NetOS, stor demi.StorOS) demi.LibOS {
	if stor == nil {
		return net
	}
	return demi.NewCombined(net, stor)
}

// --- System catalogue (Figure 5's bars and friends) ---

// SysLinux is the POSIX/epoll kernel path.
func SysLinux(env baseline.Env) System {
	return kernelSys("Linux", env, baseline.NewLinux, baseline.NewLinuxWithStorage)
}

// SysIOUring is the io_uring kernel path.
func SysIOUring() System {
	return System{Name: "io_uring", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		port := tb.newDPDK(n, LinkDPDK())
		k := baseline.NewIOUring(n, port, ip)
		tb.trackCatnip(k.Inner().(*catnip.LibOS), ip, port.MAC())
		if stor != nil {
			panic("bench: storage not wired for io_uring")
		}
		return k
	}}
}

// SysCatnap is the polled kernel path (simulated Catnap).
func SysCatnap(env baseline.Env) System {
	return kernelSys("Catnap", env, baseline.NewCatnapSim, baseline.NewCatnapSimWithStorage)
}

// kernelSys is a kernel path over Catnip's stack at in-kernel costs: built
// by build, or by buildStor when the stack has a storage log.
func kernelSys(name string, env baseline.Env,
	build func(*sim.Node, *dpdkdev.Port, wire.IPAddr, baseline.Env) *baseline.Kernelized,
	buildStor func(*sim.Node, *dpdkdev.Port, wire.IPAddr, baseline.Env, demi.StorOS) *baseline.Kernelized) System {
	return System{Name: name, Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		port := tb.newDPDK(n, LinkDPDK())
		var k *baseline.Kernelized
		if stor != nil {
			k = buildStor(n, port, ip, env, stor)
		} else {
			k = build(n, port, ip, env)
		}
		tb.trackCatnip(components(k)[0].(*catnip.LibOS), ip, port.MAC())
		return k
	}}
}

// SysCatnipTCP and SysCatnipUDP are Demikernel's DPDK libOS.
func SysCatnipTCP() System {
	return System{Name: "Catnip (TCP)", Build: buildCatnip(catnip.DefaultConfig)}
}

// SysCatnipUDP echoes over the UDP stack.
func SysCatnipUDP() System {
	s := System{Name: "Catnip (UDP)", Dgram: true, Build: buildCatnip(catnip.DefaultConfig)}
	return s
}

// SysCatnipVM is Catnip inside an Azure VM: each packet crosses the
// SmartNIC virtualization layer (Figure 6b).
func SysCatnipVM() System {
	return System{Name: "Catnip (TCP)", Build: buildCatnip(func(ip wire.IPAddr) catnip.Config {
		cfg := catnip.DefaultConfig(ip)
		cfg.TCPIngressCost += 1500 * time.Nanosecond // vnet translation
		cfg.TCPEgressCost += 1500 * time.Nanosecond
		cfg.UDPIngressCost += 1500 * time.Nanosecond
		cfg.UDPEgressCost += 1500 * time.Nanosecond
		return cfg
	})}
}

// SysCatnipForceCopy is the zero-copy ablation: all sends copied.
func SysCatnipForceCopy() System {
	return System{Name: "Catnip (copy)", Build: buildCatnip(func(ip wire.IPAddr) catnip.Config {
		cfg := catnip.DefaultConfig(ip)
		cfg.ForceCopy = true
		return cfg
	})}
}

func buildCatnip(mkcfg func(wire.IPAddr) catnip.Config) func(*Testbed, *sim.Node, wire.IPAddr, demi.StorOS) demi.LibOS {
	return func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		port := tb.newDPDK(n, LinkDPDK())
		l := catnip.New(n, port, mkcfg(ip))
		tb.trackCatnip(l, ip, port.MAC())
		return combine(l, stor)
	}
}

// SysCatmint is Demikernel's RDMA libOS; maxMsg 0 keeps the default.
func SysCatmint(maxMsg int) System {
	return System{Name: "Catmint", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		cfg := catmint.DefaultConfig(tb.Book)
		if maxMsg > 0 {
			cfg.MaxMsgSize = maxMsg
			cfg.RecvDepth = 16
			cfg.RefillThreshold = 8
		}
		l := catmint.New(n, tb.newRDMA(n, LinkRDMA()), cfg)
		l.RegisterAddr(wireAddr(ip))
		return combine(l, stor)
	}}
}

// SysCatpaw is the Windows RDMA libOS over the CX-4 InfiniBand cluster
// (Figure 6a): the same Catmint design on NDSPI.
func SysCatpaw() System {
	return System{Name: "Catpaw", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		l := catmint.New(n, tb.newRDMA(n, LinkIB56()), catmint.DefaultConfig(tb.Book))
		l.RegisterAddr(wireAddr(ip))
		return l
	}}
}

// SysERPC is the eRPC comparator over RDMA.
func SysERPC() System {
	return System{Name: "eRPC", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		l := baseline.NewERPC(n, tb.newRDMA(n, LinkRDMA()), tb.Book).(*catmint.LibOS)
		l.RegisterAddr(wireAddr(ip))
		return l
	}}
}

// SysTxnStoreRDMA models TxnStore's hand-rolled RDMA messaging: one queue
// pair per connection and a copy on each send (paper §7.6 credits Catmint's
// win to avoiding exactly these).
func SysTxnStoreRDMA() System {
	return System{Name: "RDMA (custom)", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		cfg := catmint.DefaultConfig(tb.Book)
		cfg.PostSendCost = 900 * time.Nanosecond // per-conn QP cache misses
		cfg.PollCQECost = 500 * time.Nanosecond
		l := catmint.New(n, tb.newRDMA(n, LinkRDMA()), cfg)
		l.RegisterAddr(wireAddr(ip))
		return l
	}}
}

// SysShenango and SysCaladan are the kernel-bypass scheduler comparators.
func SysShenango() System {
	return System{Name: "Shenango", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		port := tb.newDPDK(n, LinkDPDK())
		l := baseline.NewShenango(n, port, ip).(*catnip.LibOS)
		tb.trackCatnip(l, ip, port.MAC())
		return l
	}}
}

// SysCaladan is the run-to-completion OFED comparator.
func SysCaladan() System {
	return System{Name: "Caladan", Build: func(tb *Testbed, n *sim.Node, ip wire.IPAddr, stor demi.StorOS) demi.LibOS {
		// Caladan's OFED path has the RDMA engine's shallower NIC latency.
		port := tb.newDPDK(n, LinkRDMA())
		l := baseline.NewCaladan(n, port, ip).(*catnip.LibOS)
		tb.trackCatnip(l, ip, port.MAC())
		return l
	}}
}

// SysSplitCore is the run-to-completion ablation: Catnip's own stack with
// packets crossing to a second core, isolating the architectural choice
// from stack quality.
func SysSplitCore() System {
	return System{Name: "Catnip (2-core)", Build: buildCatnip(func(ip wire.IPAddr) catnip.Config {
		cfg := catnip.DefaultConfig(ip)
		cfg.TCPIngressCost += 2 * 600 * time.Nanosecond
		cfg.TCPEgressCost += 2 * 600 * time.Nanosecond
		return cfg
	})}
}

func wireAddr(ip wire.IPAddr) core.Addr { return core.Addr{IP: ip} }
