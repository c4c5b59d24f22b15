// Package costmodel centralizes the virtual-CPU costs charged by library
// OSes, device shims and baselines under simulation. The constants are
// calibrated from component costs the paper itself reports (per-I/O libOS
// overheads in §7.3, Linux/kernel costs implied by Figure 5) plus standard
// published numbers for kernel crossings; EXPERIMENTS.md carries the
// calibration table. Absolute values matter less than the architectural
// ratios they encode — which path copies, which path crosses the kernel,
// which path hops cores.
package costmodel

import "time"

// Demikernel datapath costs (paper §7.3: Catmint ≈250 ns/I/O, Catnip
// ≈125 ns/UDP packet, ≈200 ns/TCP packet, §6.3: 53 ns TCP ingress).
const (
	// Libcall is the PDPIX library-call entry/exit (no kernel crossing).
	Libcall = 25 * time.Nanosecond
	// SchedQuantum is one coroutine context switch + scheduler decision.
	SchedQuantum = 8 * time.Nanosecond
	// PollEmpty is one empty device poll (rx burst finding nothing).
	PollEmpty = 15 * time.Nanosecond

	// TCPIngress is Catnip's in-order TCP segment processing + dispatch.
	TCPIngress = 53 * time.Nanosecond
	// TCPEgress is Catnip's TCP segmentation + header build + submit.
	TCPEgress = 90 * time.Nanosecond
	// UDPIngress and UDPEgress are Catnip's UDP datapath costs.
	UDPIngress = 55 * time.Nanosecond
	UDPEgress  = 60 * time.Nanosecond
	// ARPProcess handles one ARP packet.
	ARPProcess = 40 * time.Nanosecond

	// RDMAPostSend is Catmint's work-request build + doorbell.
	RDMAPostSend = 120 * time.Nanosecond
	// RDMAPollCQE is Catmint's per-completion processing.
	RDMAPollCQE = 100 * time.Nanosecond

	// SPDKSubmit and SPDKComplete are Cattree's per-command costs.
	SPDKSubmit   = 100 * time.Nanosecond
	SPDKComplete = 80 * time.Nanosecond
)

// Kernel-path costs (Linux baselines; Li et al. "Tales of the Tail" and
// io_uring literature give the same order).
const (
	// Syscall is one user/kernel crossing, mitigations included.
	Syscall = 600 * time.Nanosecond
	// KernelTCPRx/Tx is the in-kernel TCP stack cost per packet,
	// including skb management and softirq share.
	KernelTCPRx = 2500 * time.Nanosecond
	KernelTCPTx = 2200 * time.Nanosecond
	// KernelUDPRx/Tx is the in-kernel UDP path.
	KernelUDPRx = 1800 * time.Nanosecond
	KernelUDPTx = 1600 * time.Nanosecond
	// KernelBlockIO is the kernel block layer + ext4 journalling cost per
	// synchronous write, excluding device time.
	KernelBlockIO = 8 * time.Microsecond
	// EpollWait is the cost of an epoll_wait returning one event.
	EpollWait = 1200 * time.Nanosecond
	// IOUringSubmit is the amortized per-op cost of io_uring
	// submission+completion via shared rings (cheaper than syscalls).
	IOUringSubmit = 700 * time.Nanosecond
	// WakeFromSleep is scheduler wakeup latency when a blocked kernel
	// thread becomes runnable (epoll path pays it; polling does not).
	WakeFromSleep = 5 * time.Microsecond
)

// Architecture costs for the kernel-bypass comparators.
const (
	// CoreHop is a cross-core handoff through a shared-memory queue
	// (Shenango/Caladan IOKernel -> worker), including cache transfer.
	CoreHop = 600 * time.Nanosecond
	// RawDPDKPerPacket is testpmd-style L2 forwarding work per packet.
	RawDPDKPerPacket = 30 * time.Nanosecond
	// RawRDMAPerIO is perftest-style per-operation host work.
	RawRDMAPerIO = 50 * time.Nanosecond
	// ERPCPerIO is eRPC's per-RPC host processing (carefully tuned,
	// paper: ~0.2 µs below Catmint's RTT share).
	ERPCPerIO = 150 * time.Nanosecond
	// ShenangoPerPacket is Shenango's per-packet IOKernel work, added to
	// the CoreHop each direction.
	ShenangoPerPacket = 250 * time.Nanosecond
	// CaladanPerPacket is Caladan's run-to-completion per-packet work on
	// the directly-attached OFED queue.
	CaladanPerPacket = 180 * time.Nanosecond
)

// Intra-host transport costs (catmem shared-memory queues and the catloop
// in-process wire, a simnet switch hop between zero-cost links).
const (
	// ShmRingOp is one lock-free ring slot operation (enqueue or dequeue)
	// on a shared-memory queue: an index update plus one cache-line write.
	ShmRingOp = 25 * time.Nanosecond
	// ShmHandoff is the consumer-side latency of a cross-core buffer
	// handoff through shared memory: the cache-line transfer plus the
	// poll that observes it.
	ShmHandoff = 100 * time.Nanosecond
	// LoopbackWire is the in-process wire latency of the catloop hub: a
	// frame handed between two TCP stacks in one address space (memcpy
	// plus a wakeup, no NIC or PCIe crossing). It is the hub switch's one
	// hop, counted from the sender's clock after the frame is built.
	LoopbackWire = 300 * time.Nanosecond
)

// Environment profiles (Figure 6).
const (
	// WSLSyscallFactor multiplies kernel-crossing costs under the Windows
	// Subsystem for Linux translation layer.
	WSLSyscallFactor = 12
	// AzureVNICHop is the SmartNIC vnet translation added to each DPDK
	// packet in an Azure VM (paper §7.3: DPDK "still goes through the
	// Azure virtualization layer").
	AzureVNICHop = 1500 * time.Nanosecond
	// AzureKernelFactor multiplies kernel network-stack costs inside a VM
	// (vmexits, paravirt queues).
	AzureKernelFactor = 2
)

// memBandwidth is the modelled memcpy bandwidth (bytes/ns): ~32 GB/s.
const memBandwidth = 32

// Memcpy returns the CPU cost of copying n bytes.
func Memcpy(n int) time.Duration {
	return time.Duration(n/memBandwidth) * time.Nanosecond
}
