package catnip

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// negCacheTTL is how long a failed resolution is remembered. While the
// entry is fresh, sends to the address fail immediately instead of
// re-launching the bounded-retry request train (no retry storm when an
// application hammers an unreachable host).
const negCacheTTL = 5 * time.Millisecond

// arpCache resolves IPv4 addresses to MACs. Unresolved sends queue their
// packets on the pending entry; resolution flushes them in order. The fast
// path assumes the address is cached (paper §6.3); the request/retry logic
// lives in a background coroutine.
type arpCache struct {
	lib     *LibOS
	entries map[wire.IPAddr]simnet.MAC
	pending map[wire.IPAddr]*arpPending
	neg     map[wire.IPAddr]sim.Time // failed resolutions, by expiry
}

// arpPending tracks an unresolved address: queued frames and waiting
// coroutine wakers.
type arpPending struct {
	sends   []pendingSend
	wakers  []sched.Waker
	retries int
}

// pendingSend is a deferred IPv4 transmission. done reports the outcome:
// nil when the frame went on the wire, ErrHostUnreachable when resolution
// gave up.
type pendingSend struct {
	dstIP     wire.IPAddr
	proto     uint8
	transport []byte
	payload   []byte
	ctx       uint64 // distributed-trace context riding with the deferred frame
	done      func(error)
}

func newARPCache(l *LibOS) *arpCache {
	return &arpCache{
		lib:     l,
		entries: make(map[wire.IPAddr]simnet.MAC),
		pending: make(map[wire.IPAddr]*arpPending),
		neg:     make(map[wire.IPAddr]sim.Time),
	}
}

// Seed installs a static entry (tests and benchmarks pre-populate caches to
// measure the fast path, as the paper does).
func (a *arpCache) Seed(ip wire.IPAddr, mac simnet.MAC) {
	a.entries[ip] = mac
}

// hasPending reports whether resolution for ip is still in progress.
func (a *arpCache) hasPending(ip wire.IPAddr) bool {
	_, ok := a.pending[ip]
	return ok
}

// negative reports whether ip has a fresh failed-resolution entry.
func (a *arpCache) negative(ip wire.IPAddr) bool {
	exp, ok := a.neg[ip]
	if !ok {
		return false
	}
	if a.lib.Now() >= exp {
		delete(a.neg, ip)
		return false
	}
	return true
}

// lookup returns the MAC for ip if cached.
func (a *arpCache) lookup(ip wire.IPAddr) (simnet.MAC, bool) {
	m, ok := a.entries[ip]
	return m, ok
}

// queue holds an IPv4 packet for an address not in the cache, which keeps
// transport and payload until then, and kicks resolution. done is called
// with nil once the packet is on the wire, or with ErrHostUnreachable if
// resolution fails — synchronously while a failed one is remembered.
func (a *arpCache) queue(dstIP wire.IPAddr, proto uint8, transport, payload []byte, ctx uint64, done func(error)) {
	if a.negative(dstIP) {
		done(core.ErrHostUnreachable)
		return
	}
	p, ok := a.pending[dstIP]
	if !ok {
		p = &arpPending{}
		a.pending[dstIP] = p
		a.request(dstIP)
		a.spawnRetrier(dstIP)
	}
	p.sends = append(p.sends, pendingSend{dstIP, proto, transport, payload, ctx, done})
}

// waitResolved registers a coroutine waker to fire when ip resolves; it
// reports whether the address is already resolved. While a negative-cache
// entry is fresh, it neither registers nor re-requests — the caller
// observes no pending resolution and fails fast.
func (a *arpCache) waitResolved(ip wire.IPAddr, w sched.Waker) bool {
	if _, ok := a.entries[ip]; ok {
		return true
	}
	if a.negative(ip) {
		return false
	}
	p, ok := a.pending[ip]
	if !ok {
		p = &arpPending{}
		a.pending[ip] = p
		a.request(ip)
		a.spawnRetrier(ip)
	}
	p.wakers = append(p.wakers, w)
	return false
}

// request broadcasts one ARP request for ip.
func (a *arpCache) request(ip wire.IPAddr) {
	h := wire.ARPHeader{
		Op:       wire.ARPRequest,
		SenderHW: a.lib.port.MAC(),
		SenderIP: a.lib.cfg.IP,
		TargetIP: ip,
	}
	frame := make([]byte, wire.EthHeaderLen+wire.ARPHeaderLen)
	eth := wire.EthHeader{Dst: simnet.Broadcast, Src: a.lib.port.MAC(), EtherType: wire.EtherTypeARP}
	n := eth.Marshal(frame)
	h.Marshal(frame[n:])
	a.lib.txFrame(frame)
}

// spawnRetrier starts a background coroutine re-requesting ip until it
// resolves. After bounded retries it gives up: queued sends fail with
// ErrHostUnreachable, waiters wake to observe the failure, and a
// negative-cache entry suppresses an immediate retry storm.
func (a *arpCache) spawnRetrier(ip wire.IPAddr) {
	const interval = 500 * time.Microsecond
	const maxRetries = 10
	var timer core.Timer
	a.lib.Sched().Spawn(sched.Background, sched.Func(func(ctx *sched.Context) sched.Poll {
		p, ok := a.pending[ip]
		if !ok {
			a.lib.Timers().Stop(&timer)
			return sched.Done // resolved and flushed
		}
		if p.retries >= maxRetries {
			delete(a.pending, ip)
			a.neg[ip] = a.lib.Now().Add(negCacheTTL)
			a.lib.stats.ARPGiveUps++
			for _, s := range p.sends {
				s.done(core.ErrHostUnreachable)
			}
			for _, w := range p.wakers {
				w.Wake() // let waiters observe failure
			}
			return sched.Done
		}
		p.retries++
		a.request(ip)
		a.lib.Timers().Reset(&timer, ctx.Waker(), a.lib.Now().Add(interval))
		return sched.Pending
	}))
}

// handle processes a received ARP packet: learn the sender, answer
// requests for our address, and flush pending traffic.
func (a *arpCache) handle(payload []byte) {
	h, err := wire.ParseARP(payload)
	if err != nil {
		return
	}
	// Learn the sender mapping opportunistically (clearing any stale
	// negative entry: the host is evidently reachable again).
	if !h.SenderIP.IsZero() {
		a.entries[h.SenderIP] = h.SenderHW
		delete(a.neg, h.SenderIP)
		a.flush(h.SenderIP, h.SenderHW)
	}
	if h.Op == wire.ARPRequest && h.TargetIP == a.lib.cfg.IP {
		reply := wire.ARPHeader{
			Op:       wire.ARPReply,
			SenderHW: a.lib.port.MAC(),
			SenderIP: a.lib.cfg.IP,
			TargetHW: h.SenderHW,
			TargetIP: h.SenderIP,
		}
		frame := make([]byte, wire.EthHeaderLen+wire.ARPHeaderLen)
		eth := wire.EthHeader{Dst: h.SenderHW, Src: a.lib.port.MAC(), EtherType: wire.EtherTypeARP}
		n := eth.Marshal(frame)
		reply.Marshal(frame[n:])
		a.lib.txFrame(frame)
	}
}

// flush transmits traffic queued for ip and wakes waiting coroutines.
func (a *arpCache) flush(ip wire.IPAddr, mac simnet.MAC) {
	p, ok := a.pending[ip]
	if !ok {
		return
	}
	delete(a.pending, ip)
	for _, s := range p.sends {
		a.lib.sendIPv4(mac, s.dstIP, s.proto, s.transport, s.payload, s.ctx)
		s.done(nil)
	}
	for _, w := range p.wakers {
		w.Wake()
	}
}
