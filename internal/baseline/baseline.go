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
// copies surround it, which is exactly what the profiles charge.
package baseline

import (
	"time"

	"demikernel/internal/catmint"
	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
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

// Profile is the cost structure a Kernelized wrapper charges around the
// protocol stack.
type Profile struct {
	Name        string
	SyscallCost time.Duration // per PDPIX-equivalent syscall
	WaitCost    time.Duration // per wait call (epoll_wait / cqe reap)
	WakeCost    time.Duration // scheduler wakeup after sleeping
	RxCopy      bool          // kernel-to-user copy on receive
	Polling     bool          // busy-poll instead of sleeping
}

// LinuxProfile is the standard POSIX/epoll path.
func LinuxProfile(env Env) Profile {
	p := Profile{
		Name:        "linux",
		SyscallCost: costmodel.Syscall,
		WaitCost:    costmodel.EpollWait,
		WakeCost:    costmodel.WakeFromSleep,
		RxCopy:      true,
	}
	switch env {
	case EnvWSL:
		p.Name = "wsl"
		p.SyscallCost *= costmodel.WSLSyscallFactor
		p.WaitCost *= costmodel.WSLSyscallFactor
	case EnvAzureVM:
		p.Name = "linux-vm"
		p.SyscallCost *= costmodel.AzureKernelFactor
		p.WaitCost *= costmodel.AzureKernelFactor
		p.WakeCost *= costmodel.AzureKernelFactor
	}
	return p
}

// IOUringProfile models io_uring with a polled completion ring.
func IOUringProfile() Profile {
	return Profile{
		Name:        "io_uring",
		SyscallCost: costmodel.IOUringSubmit,
		WaitCost:    0, // completions read from the shared ring
		WakeCost:    costmodel.WakeFromSleep,
		RxCopy:      true,
	}
}

// CatnapProfile models Demikernel's Catnap: the kernel path, but polled
// read/write instead of epoll — it burns a core to cut the wake latency
// (paper §6.1, §7.3).
func CatnapProfile(env Env) Profile {
	p := Profile{
		Name:        "catnap",
		SyscallCost: costmodel.Syscall,
		WaitCost:    0,
		WakeCost:    0,
		RxCopy:      true,
		Polling:     true,
	}
	if env == EnvWSL {
		p.SyscallCost *= costmodel.WSLSyscallFactor
	}
	if env == EnvAzureVM {
		// Polling also keeps the vCPU scheduled (paper §7.3), so only the
		// syscall cost inflates.
		p.SyscallCost *= costmodel.AzureKernelFactor
	}
	return p
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
func NewLinux(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env) *Kernelized {
	inner := catnip.New(node, port, kernelStackConfig(ip, env))
	return Wrap(inner, node, LinuxProfile(env))
}

// NewLinuxWithStorage builds a Linux baseline with a storage log behind
// the kernel block layer (for the logging and Redis experiments).
func NewLinuxWithStorage(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env, stor demi.StorOS) *Kernelized {
	inner := demi.NewCombined(catnip.New(node, port, kernelStackConfig(ip, env)), stor)
	return Wrap(inner, node, LinuxProfile(env))
}

// NewCatnapSimWithStorage is the polled kernel path plus kernel storage.
func NewCatnapSimWithStorage(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env, stor demi.StorOS) *Kernelized {
	inner := demi.NewCombined(catnip.New(node, port, kernelStackConfig(ip, env)), stor)
	return Wrap(inner, node, CatnapProfile(env))
}

// NewIOUring builds an io_uring-baseline stack.
func NewIOUring(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) *Kernelized {
	inner := catnip.New(node, port, kernelStackConfig(ip, EnvNative))
	return Wrap(inner, node, IOUringProfile())
}

// NewCatnapSim builds the simulated equivalent of Catnap (kernel stack,
// polled) so Catnap appears in virtual-time experiments alongside the
// kernel-bypass libOSes. The real Catnap (internal/catnap) runs on the
// real OS.
func NewCatnapSim(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr, env Env) *Kernelized {
	inner := catnip.New(node, port, kernelStackConfig(ip, env))
	return Wrap(inner, node, CatnapProfile(env))
}

// NewShenango builds a Shenango-model stack: user-level TCP over DPDK with
// a dedicated IOKernel core — each packet pays two core hops plus IOKernel
// work on top of a basic (less optimized) TCP stack.
func NewShenango(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) demi.NetOS {
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
func NewCaladan(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) demi.NetOS {
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
func NewERPC(node *sim.Node, nic *rdmadev.NIC, book *catmint.AddrBook) demi.NetOS {
	cfg := catmint.DefaultConfig(book)
	cfg.PostSendCost = costmodel.ERPCPerIO / 2
	cfg.PollCQECost = costmodel.ERPCPerIO / 2
	return catmint.New(node, nic, cfg)
}

// Kernelized wraps a protocol stack with kernel-path costs: syscalls on
// every PDPIX-equivalent call, wakeup latency when sleeping, and receive
// copies. The inner stack may be a bare network libOS or a Combined
// network×storage stack (the kernel path then models file writes through
// the block layer).
type Kernelized struct {
	inner demi.Drivable
	node  *sim.Node
	prof  Profile
	// storageWriteCost is the kernel block-layer + filesystem journalling
	// cost per synchronous write, charged when pushing to a storage queue.
	storageWriteCost time.Duration
	// waiter is the shared wait loop, driven over inner with the kernel
	// path's costs hooked in: epoll_wait (or ring reap) on entry, and the
	// wakeup plus another epoll_wait each time the thread slept.
	waiter core.Waiter
}

// Wrap builds a Kernelized stack.
func Wrap(inner demi.Drivable, node *sim.Node, prof Profile) *Kernelized {
	k := &Kernelized{inner: inner, node: node, prof: prof, storageWriteCost: costmodel.KernelBlockIO}
	k.waiter = core.Waiter{
		Table:   inner.Tokens(),
		Runner:  inner,
		OnEnter: func() { node.Charge(prof.WaitCost) },
	}
	if !prof.Polling {
		k.waiter.OnWake = func() { node.Charge(prof.WakeCost + prof.WaitCost) }
	}
	return k
}

// Profile returns the wrapper's cost profile.
func (k *Kernelized) Profile() Profile { return k.prof }

// Inner returns the wrapped stack.
func (k *Kernelized) Inner() demi.Drivable { return k.inner }

// Seek moves a storage cursor (lseek syscall).
func (k *Kernelized) Seek(qd core.QDesc, off int64) error {
	k.syscall()
	return k.inner.Seek(qd, off)
}

// Truncate truncates the log (ftruncate syscall).
func (k *Kernelized) Truncate(qd core.QDesc) error {
	k.syscall()
	return k.inner.Truncate(qd)
}

func (k *Kernelized) syscall() { k.node.Charge(k.prof.SyscallCost) }

// Heap returns the application heap.
func (k *Kernelized) Heap() *memory.Heap { return k.inner.Heap() }

// Socket creates a socket (one syscall).
func (k *Kernelized) Socket(t core.SockType) (core.QDesc, error) {
	k.syscall()
	return k.inner.Socket(t)
}

// Bind binds (one syscall).
func (k *Kernelized) Bind(qd core.QDesc, a core.Addr) error {
	k.syscall()
	return k.inner.Bind(qd, a)
}

// Listen listens (one syscall).
func (k *Kernelized) Listen(qd core.QDesc, backlog int) error {
	k.syscall()
	return k.inner.Listen(qd, backlog)
}

// Accept posts an accept (one syscall when it completes; charged here).
func (k *Kernelized) Accept(qd core.QDesc) (core.QToken, error) {
	k.syscall()
	return k.inner.Accept(qd)
}

// Connect dials (one syscall).
func (k *Kernelized) Connect(qd core.QDesc, a core.Addr) (core.QToken, error) {
	k.syscall()
	return k.inner.Connect(qd, a)
}

// Close closes (one syscall).
func (k *Kernelized) Close(qd core.QDesc) error {
	k.syscall()
	return k.inner.Close(qd)
}

// Queue creates an in-memory queue (no kernel involvement).
func (k *Kernelized) Queue() (core.QDesc, error) { return k.inner.Queue() }

// Open opens a storage log (one syscall).
func (k *Kernelized) Open(name string) (core.QDesc, error) {
	k.syscall()
	return k.inner.Open(name)
}

// Push is a write syscall; on storage queues it also pays the kernel
// block layer and filesystem journalling (ext4 in the paper's testbed).
func (k *Kernelized) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	k.syscall()
	if c, ok := k.inner.(*demi.Combined); ok && c.IsStorageQD(qd) {
		k.node.Charge(k.storageWriteCost)
		k.node.Charge(costmodel.Memcpy(sga.TotalLen())) // user-to-kernel copy
	}
	return k.inner.Push(qd, sga)
}

// PushTo is a sendto syscall.
func (k *Kernelized) PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error) {
	k.syscall()
	return k.inner.PushTo(qd, sga, to)
}

// Pop is a read syscall (the data lands at wait time).
func (k *Kernelized) Pop(qd core.QDesc) (core.QToken, error) {
	k.syscall()
	return k.inner.Pop(qd)
}

// finish applies receive-side costs to a redeemed event (a zero event, as
// returned beside an error, costs nothing).
func (k *Kernelized) finish(ev core.QEvent) core.QEvent {
	if k.prof.RxCopy && ev.Op == core.OpPop {
		k.node.Charge(costmodel.Memcpy(ev.SGA.TotalLen()))
	}
	return ev
}

// Wait blocks until qt completes.
func (k *Kernelized) Wait(qt core.QToken) (core.QEvent, error) {
	ev, err := k.waiter.Wait(qt)
	return k.finish(ev), err
}

// WaitAny blocks until one of qts completes.
func (k *Kernelized) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	i, ev, err := k.waiter.WaitAny(qts, timeout)
	return i, k.finish(ev), err
}

// WaitAll blocks until all tokens complete.
func (k *Kernelized) WaitAll(qts []core.QToken, timeout time.Duration) ([]core.QEvent, error) {
	events, err := k.waiter.WaitAll(qts, timeout)
	for i := range events {
		events[i] = k.finish(events[i])
	}
	return events, err
}
