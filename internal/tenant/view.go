package tenant

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
)

// Registrar is implemented by library OSes whose coroutine scheduler does
// weighted-fair queuing across tenants.
type Registrar interface {
	RegisterTenant(tid uint32, weight uint32)
}

// View is one tenant's handle on a shared library OS: it implements
// demi.LibOS, so tenant applications run unmodified, but every call is
// checked against the tenant's capabilities and quotas first —
//
//   - descriptors: only queues this view created (or accepted) may be
//     used; a guessed or leaked foreign qd fails with ErrBadQDesc.
//   - qtokens: redemption goes through core.TryTakeAs under the tenant's
//     principal, so foreign tokens fail with ErrBadQToken without
//     touching the victim's op.
//   - flows: Connect and Accept charge the flow-table quota, released on
//     close or operation failure (no leak across churn).
//   - in-flight tokens: every mint charges the token quota, released at
//     redemption.
//   - push rate: Push/PushTo debit a deterministic token bucket.
//
// All rejections are complete-or-error at the call site: a quota-rejected
// Push returns ErrTenantQuota with buffer ownership untouched, exactly
// like the PR 4 graceful-degradation contract.
type View struct {
	t  *Tenant
	os demi.NetOS
	w  core.Waiter
	th *memory.TenantHeap

	owned map[core.QDesc]bool // descriptors this tenant may use
	flow  map[core.QDesc]bool // descriptors holding a flow-quota charge
}

// NewView hands tenant t its capability to the shared libOS. The tenant's
// heap quota and scheduler weight are installed here; the token table's
// issuer is bracketed per call.
func NewView(t *Tenant, os demi.NetOS) *View {
	v := &View{
		t:     t,
		os:    os,
		w:     core.Waiter{Table: os.Tokens(), Runner: os, Tenant: t.id},
		th:    os.Heap().Tenant(t.id),
		owned: make(map[core.QDesc]bool),
		flow:  make(map[core.QDesc]bool),
	}
	if t.lim.HeapBytes > 0 {
		os.Heap().SetTenantQuota(t.id, t.lim.HeapBytes)
	}
	if r, ok := os.(Registrar); ok {
		w := t.lim.Weight
		if w == 0 {
			w = 1
		}
		r.RegisterTenant(t.id, w)
	}
	return v
}

// Tenant returns the view's principal.
func (v *View) Tenant() *Tenant { return v.t }

// TenantHeap returns the tenant's DMA-heap capability; applications that
// allocate through it have their bytes charged against the tenant's quota.
func (v *View) TenantHeap() *memory.TenantHeap { return v.th }

// Heap returns the shared heap, for demi.LibOS compatibility. Allocations
// made directly on it are host-charged; quota-enforced tenants should use
// TenantHeap. (The signature is fixed by core.LibOS.)
func (v *View) Heap() *memory.Heap { return v.os.Heap() }

// enter brackets a libcall: ops minted inside are stamped with the tenant,
// and a backend that tags in-stack state (sockets, connections, coroutine
// spawns, rx allocations) reads the same issuer when it builds a socket.
func (v *View) enter() { v.os.Tokens().SetIssuer(v.t.id) }

// exit restores the host principal.
func (v *View) exit() { v.os.Tokens().SetIssuer(0) }

// check validates descriptor ownership.
func (v *View) check(qd core.QDesc) error {
	if !v.owned[qd] {
		return core.ErrBadQDesc
	}
	return nil
}

// Socket creates a socket queue owned by the tenant.
func (v *View) Socket(t core.SockType) (core.QDesc, error) {
	v.enter()
	qd, err := v.os.Socket(t)
	v.exit()
	if err == nil {
		v.owned[qd] = true
	}
	return qd, err
}

// Bind assigns the socket's local address.
func (v *View) Bind(qd core.QDesc, addr core.Addr) error {
	if err := v.check(qd); err != nil {
		return err
	}
	v.enter()
	defer v.exit()
	return v.os.Bind(qd, addr)
}

// Listen makes a stream socket accept connections.
func (v *View) Listen(qd core.QDesc, backlog int) error {
	if err := v.check(qd); err != nil {
		return err
	}
	v.enter()
	defer v.exit()
	return v.os.Listen(qd, backlog)
}

// Accept asks for the next inbound connection. The flow-table entry for
// the connection-to-be is reserved now (complete-or-error: a tenant at
// its flow cap gets ErrTenantQuota here, not a half-accepted socket); the
// reservation is released if the accept itself fails.
func (v *View) Accept(qd core.QDesc) (core.QToken, error) {
	if err := v.check(qd); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireFlow(); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireToken(); err != nil {
		v.t.ReleaseFlow()
		return core.InvalidQToken, err
	}
	v.enter()
	qt, err := v.os.Accept(qd)
	v.exit()
	if err != nil {
		v.t.ReleaseToken()
		v.t.ReleaseFlow()
		return qt, err
	}
	return qt, nil
}

// Connect initiates a connection, charging one flow-table entry. The
// charge is released if the connect fails at the call or completes with
// an error.
func (v *View) Connect(qd core.QDesc, addr core.Addr) (core.QToken, error) {
	if err := v.check(qd); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireFlow(); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireToken(); err != nil {
		v.t.ReleaseFlow()
		return core.InvalidQToken, err
	}
	v.enter()
	qt, err := v.os.Connect(qd, addr)
	v.exit()
	if err != nil {
		v.t.ReleaseToken()
		v.t.ReleaseFlow()
		return qt, err
	}
	v.flow[qd] = true
	return qt, nil
}

// Close releases the queue and credits its flow-table charge back.
func (v *View) Close(qd core.QDesc) error {
	if err := v.check(qd); err != nil {
		return err
	}
	v.enter()
	err := v.os.Close(qd)
	v.exit()
	delete(v.owned, qd)
	if v.flow[qd] {
		delete(v.flow, qd)
		v.t.ReleaseFlow()
	}
	return err
}

// Queue creates an in-memory queue owned by the tenant.
func (v *View) Queue() (core.QDesc, error) {
	v.enter()
	qd, err := v.os.Queue()
	v.exit()
	if err == nil {
		v.owned[qd] = true
	}
	return qd, err
}

// Open opens a storage log queue owned by the tenant.
func (v *View) Open(name string) (core.QDesc, error) {
	v.enter()
	qd, err := v.os.Open(name)
	v.exit()
	if err == nil {
		v.owned[qd] = true
	}
	return qd, err
}

// Push submits an outbound operation, debiting the push-rate bucket and
// the token quota. On any rejection the caller keeps buffer ownership.
func (v *View) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	if err := v.check(qd); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AllowPush(v.os.Now()); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireToken(); err != nil {
		return core.InvalidQToken, err
	}
	v.enter()
	qt, err := v.os.Push(qd, sga)
	v.exit()
	if err != nil {
		v.t.ReleaseToken()
	}
	return qt, err
}

// PushTo is Push with an explicit datagram destination.
func (v *View) PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error) {
	if err := v.check(qd); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AllowPush(v.os.Now()); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireToken(); err != nil {
		return core.InvalidQToken, err
	}
	v.enter()
	qt, err := v.os.PushTo(qd, sga, to)
	v.exit()
	if err != nil {
		v.t.ReleaseToken()
	}
	return qt, err
}

// Pop asks for the next inbound data, debiting the token quota.
func (v *View) Pop(qd core.QDesc) (core.QToken, error) {
	if err := v.check(qd); err != nil {
		return core.InvalidQToken, err
	}
	if err := v.t.AcquireToken(); err != nil {
		return core.InvalidQToken, err
	}
	v.enter()
	qt, err := v.os.Pop(qd)
	v.exit()
	if err != nil {
		v.t.ReleaseToken()
	}
	return qt, err
}

// settle applies one redeemed event's quota bookkeeping: the in-flight
// token is released; a failed connect releases its flow charge; an accept
// adopts (success) or releases (failure) the flow reserved at Accept.
func (v *View) settle(ev core.QEvent) {
	v.t.ReleaseToken()
	switch ev.Op {
	case core.OpConnect:
		if ev.Err != nil && v.flow[ev.QD] {
			delete(v.flow, ev.QD)
			v.t.ReleaseFlow()
		}
	case core.OpAccept:
		if ev.Err != nil {
			v.t.ReleaseFlow() // the reservation made at Accept
		} else {
			v.owned[ev.NewQD] = true
			v.flow[ev.NewQD] = true // the reservation becomes the conn's charge
		}
	}
}

// Wait blocks until qt completes. A token minted for another tenant is
// rejected with ErrBadQToken (and counted), not redeemed.
func (v *View) Wait(qt core.QToken) (core.QEvent, error) {
	ev, err := v.w.Wait(qt)
	if err == core.ErrBadQToken {
		v.t.noteBadWait()
	}
	if err == nil {
		v.settle(ev)
	}
	return ev, err
}

// WaitAny blocks until one of qts completes.
func (v *View) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	i, ev, err := v.w.WaitAny(qts, timeout)
	if err == core.ErrBadQToken {
		v.t.noteBadWait()
	}
	if err == nil {
		v.settle(ev)
	}
	return i, ev, err
}

// WaitAll blocks until every token completes. On timeout, quota is
// credited for exactly the events that were redeemed.
func (v *View) WaitAll(qts []core.QToken, timeout time.Duration) ([]core.QEvent, error) {
	events, err := v.w.WaitAll(qts, timeout)
	if err == core.ErrBadQToken {
		v.t.noteBadWait()
	}
	for _, ev := range events {
		if ev.Op != core.OpInvalid {
			v.settle(ev)
		}
	}
	return events, err
}

// TryTake redeems qt non-blocking under the tenant's principal.
func (v *View) TryTake(qt core.QToken) (core.QEvent, bool, error) {
	ev, done, err := v.os.Tokens().TryTakeAs(qt, v.t.id)
	if err == core.ErrBadQToken {
		v.t.noteBadWait()
	}
	if done && err == nil {
		v.settle(ev)
	}
	return ev, done, err
}
