// Package baseline models the systems the paper compares against, over the
// same simulated fabric and devices as the Demikernel libOSes. Each
// baseline differs from Demikernel exactly in the architectural dimensions
// the paper credits for its results:
//
//   - Linux (POSIX sockets + epoll): two kernel crossings per I/O, a copy
//     in each direction, in-kernel protocol stacks, and sleep/wake latency
//     on the epoll path.
//   - io_uring: the same kernel stacks, but batched ring submission
//     replaces most syscalls and completions need no epoll_wait.
//   - Shenango: kernel-bypass with a dedicated IOKernel core — every
//     packet pays two cross-core handoffs (paper §7.3: "packets traverse
//     2 cores").
//   - Caladan: run-to-completion on the low-level OFED interface — lowest
//     latency, at the cost of NIC portability (paper §7.3).
//   - eRPC: run-to-completion RPCs carefully tuned for the NIC.
//   - testpmd / perftest: raw device echo loops, no OS at all — the
//     "native" floors of Figures 5 and 8.
//
// Linux and io_uring reuse Catnip's protocol machinery with kernel cost
// parameters: the kernel's TCP is not architecturally different from a
// user-level TCP — what differs is where it runs and what crossings and
// copies surround it, which is exactly what core.Kernel charges.
package baseline

import (
	"demikernel/internal/catmint"
	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
)

// Env selects the environment profile (Figure 6).
type Env int

const (
	// EnvNative is the bare-metal Linux testbed.
	EnvNative Env = iota
	// EnvWSL is Windows running POSIX through the WSL translation layer.
	EnvWSL
	// EnvAzureVM is a general-purpose Azure VM: virtualized NIC path and
	// paravirtualized kernel I/O.
	EnvAzureVM
)

// LinuxKernel is the standard POSIX/epoll path.
func LinuxKernel(env Env) core.Kernel {
	k := core.Kernel{Syscall: costmodel.Syscall, Wait: costmodel.EpollWait, Wake: costmodel.WakeFromSleep}
	switch env {
	case EnvWSL:
		k.Syscall *= costmodel.WSLSyscallFactor
		k.Wait *= costmodel.WSLSyscallFactor
	case EnvAzureVM:
		k.Syscall *= costmodel.AzureKernelFactor
		k.Wait *= costmodel.AzureKernelFactor
		k.Wake *= costmodel.AzureKernelFactor
	}
	return k
}

// IOUringKernel models io_uring with a polled completion ring: completions
// are read from the shared ring, so a wait costs nothing but the wakeup.
func IOUringKernel() core.Kernel {
	return core.Kernel{Syscall: costmodel.IOUringSubmit, Wake: costmodel.WakeFromSleep}
}

// CatnapKernel models Demikernel's Catnap: the kernel path, but polled
// read/write instead of epoll — it burns a core to cut the wait and wake
// latency to nothing (paper §6.1, §7.3).
func CatnapKernel(env Env) core.Kernel {
	k := core.Kernel{Syscall: costmodel.Syscall}
	if env == EnvWSL {
		k.Syscall *= costmodel.WSLSyscallFactor
	}
	if env == EnvAzureVM {
		// Polling also keeps the vCPU scheduled (paper §7.3), so only the
		// syscall cost inflates.
		k.Syscall *= costmodel.AzureKernelFactor
	}
	return k
}

// kernelStackConfig returns a Catnip config with in-kernel protocol costs.
func kernelStackConfig(ip wire.IPAddr, env Env) catnip.Config {
	cfg := catnip.DefaultConfig(ip)
	cfg.ForceCopy = true // the kernel path copies on tx
	cfg.TCPIngressCost = costmodel.KernelTCPRx
	cfg.TCPEgressCost = costmodel.KernelTCPTx
	cfg.UDPIngressCost = costmodel.KernelUDPRx
	cfg.UDPEgressCost = costmodel.KernelUDPTx
	if env == EnvAzureVM {
		cfg.TCPIngressCost = cfg.TCPIngressCost*costmodel.AzureKernelFactor + costmodel.AzureVNICHop
		cfg.TCPEgressCost = cfg.TCPEgressCost*costmodel.AzureKernelFactor + costmodel.AzureVNICHop
		cfg.UDPIngressCost = cfg.UDPIngressCost*costmodel.AzureKernelFactor + costmodel.AzureVNICHop
		cfg.UDPEgressCost = cfg.UDPEgressCost*costmodel.AzureKernelFactor + costmodel.AzureVNICHop
	}
	if env == EnvWSL {
		cfg.TCPIngressCost *= 2 // WSL2 network virtualization
		cfg.TCPEgressCost *= 2
		cfg.UDPIngressCost *= 2
		cfg.UDPEgressCost *= 2
	}
	return cfg
}

// NewLinux builds a Linux-baseline stack (POSIX + epoll) on node/port.
func NewLinux(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env) *catnip.LibOS {
	return kernelStack(node, port, ip, env, LinuxKernel(env))
}

// NewLinuxWithStorage builds a Linux baseline with a storage log behind
// the kernel block layer (for the logging and Redis experiments).
func NewLinuxWithStorage(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env, stor demi.StorOS) *demi.Combined {
	return withStorage(node, port, ip, env, stor, LinuxKernel(env))
}

// NewCatnapSimWithStorage is the polled kernel path plus kernel storage.
func NewCatnapSimWithStorage(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env, stor demi.StorOS) *demi.Combined {
	return withStorage(node, port, ip, env, stor, CatnapKernel(env))
}

// NewIOUring builds an io_uring-baseline stack.
func NewIOUring(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
	return kernelStack(node, port, ip, EnvNative, IOUringKernel())
}

// NewCatnapSim builds the simulated equivalent of Catnap (kernel stack,
// polled) so Catnap appears in virtual-time experiments alongside the
// kernel-bypass libOSes. The real Catnap (internal/catnap) runs on the
// real OS.
func NewCatnapSim(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env) *catnip.LibOS {
	return kernelStack(node, port, ip, env, CatnapKernel(env))
}

// kernelStack is Catnip's protocol machinery at in-kernel costs, behind
// kernel k.
func kernelStack(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env, k core.Kernel) *catnip.LibOS {
	l := catnip.New(node, port, kernelStackConfig(ip, env))
	l.BehindKernel(k)
	return l
}

// withStorage is kernelStack with a storage log, both behind k: a log
// write also pays the block layer and filesystem journalling (ext4 in the
// paper's testbed).
func withStorage(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env, stor demi.StorOS, k core.Kernel) *demi.Combined {
	stor.BehindKernel(k)
	return demi.NewCombined(kernelStack(node, port, ip, env, k), stor)
}

// NewShenango builds a Shenango-model stack: user-level TCP over DPDK with
// a dedicated IOKernel core — each packet pays two core hops plus IOKernel
// work on top of a basic (less optimized) TCP stack.
func NewShenango(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
	cfg := catnip.DefaultConfig(ip)
	cfg.TCPIngressCost = costmodel.ShenangoPerPacket + 2*costmodel.CoreHop
	cfg.TCPEgressCost = costmodel.ShenangoPerPacket + 2*costmodel.CoreHop
	cfg.UDPIngressCost = cfg.TCPIngressCost
	cfg.UDPEgressCost = cfg.TCPEgressCost
	return catnip.New(node, port, cfg)
}

// NewCaladan builds a Caladan-model stack: run-to-completion TCP directly
// on the OFED-level interface. Lower per-packet cost than Catnip (no
// portability layer), same single-core architecture.
func NewCaladan(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
	cfg := catnip.DefaultConfig(ip)
	cfg.TCPIngressCost = costmodel.CaladanPerPacket
	cfg.TCPEgressCost = costmodel.CaladanPerPacket
	cfg.UDPIngressCost = costmodel.CaladanPerPacket
	cfg.UDPEgressCost = costmodel.CaladanPerPacket
	return catnip.New(node, port, cfg)
}

// NewERPC builds an eRPC-model stack: RPC-oriented messaging over the RDMA
// NIC with per-IO costs tuned below Catmint's (paper: eRPC is "carefully
// tuned for Mellanox CX5 NICs").
func NewERPC(node *sim.Node, nic *rdmadev.NIC, book *catmint.AddrBook) *catmint.LibOS {
	cfg := catmint.DefaultConfig(book)
	cfg.PostSendCost = costmodel.ERPCPerIO / 2
	cfg.PollCQECost = costmodel.ERPCPerIO / 2
	return catmint.New(node, nic, cfg)
}
