package txnstore

import (
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
)

// versioned is one key's replicated state.
type versioned struct {
	value   []byte
	version uint64
}

// Replica is one storage server: a versioned in-memory keyspace behind the
// RPC interface.
type Replica struct {
	data map[string]versioned
	// Stats
	Gets, Puts, Rejected uint64
}

// NewReplica returns an empty replica.
func NewReplica() *Replica { return &Replica{data: make(map[string]versioned)} }

// handle executes one decoded request.
func (r *Replica) handle(msg any) any {
	switch m := msg.(type) {
	case GetRequest:
		r.Gets++
		v, ok := r.data[string(m.Key)]
		return GetReply{Found: ok, Value: v.value, Version: v.version}
	case PutRequest:
		r.Puts++
		cur := r.data[string(m.Key)]
		if m.Conditional && cur.version != m.Expected {
			r.Rejected++
			return PutReply{Applied: false}
		}
		if !m.Conditional && m.Version <= cur.version {
			// Last-writer-wins: stale replicated writes are dropped.
			r.Rejected++
			return PutReply{Applied: false}
		}
		r.data[string(m.Key)] = versioned{
			value:   append([]byte(nil), m.Value...),
			version: m.Version,
		}
		return PutReply{Applied: true}
	default:
		return PutReply{Applied: false}
	}
}

// Serve runs the replica's RPC loop on l at addr until the libOS stops.
func (r *Replica) Serve(l demi.LibOS, addr core.Addr) error {
	lqd, err := l.Socket(core.SockStream)
	if err != nil {
		return err
	}
	if err := l.Bind(lqd, addr); err != nil {
		return err
	}
	if err := l.Listen(lqd, 16); err != nil {
		return err
	}
	aqt, err := l.Accept(lqd)
	if err != nil {
		return err
	}
	tokens := []core.QToken{aqt}
	type connState struct {
		qd  core.QDesc
		buf []byte
	}
	conns := map[core.QToken]*connState{}
	for {
		i, ev, err := l.WaitAny(tokens, -1)
		if err != nil {
			return nil
		}
		if ev.Op == core.OpAccept {
			if ev.Err == nil {
				c := &connState{qd: ev.NewQD}
				if pqt, perr := l.Pop(c.qd); perr == nil {
					tokens = append(tokens, pqt)
					conns[pqt] = c
				}
			}
			if aqt, err = l.Accept(lqd); err != nil {
				return err
			}
			tokens[i] = aqt
			continue
		}
		qt := tokens[i]
		c := conns[qt]
		delete(conns, qt)
		if ev.Err != nil || len(ev.SGA.Segs) == 0 {
			l.Close(c.qd)
			tokens = append(tokens[:i], tokens[i+1:]...)
			continue
		}
		c.buf = append(c.buf, ev.SGA.Flatten()...)
		ev.SGA.Free()
		var replies []byte
		for {
			body, n, ok := Deframe(c.buf)
			if !ok {
				break
			}
			c.buf = c.buf[n:]
			msg, derr := Decode(body)
			if derr != nil {
				replies = nil
				break
			}
			replies = append(replies, Frame(Encode(r.handle(msg)))...)
		}
		if len(replies) > 0 {
			out := memory.CopyFrom(l.Heap(), replies)
			wqt, werr := l.Push(c.qd, core.SGA(out))
			if werr != nil {
				out.Free() // failed push leaves ownership with us
				l.Close(c.qd)
				tokens = append(tokens[:i], tokens[i+1:]...)
				continue
			}
			if _, werr := l.Wait(wqt); werr != nil {
				return nil
			}
			out.Free()
		}
		pqt, perr := l.Pop(c.qd)
		if perr != nil {
			l.Close(c.qd)
			tokens = append(tokens[:i], tokens[i+1:]...)
			continue
		}
		tokens[i] = pqt
		conns[pqt] = c
	}
}
