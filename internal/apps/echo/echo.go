// Package echo implements the paper's echo system (§7.2): a server that
// returns every message, optionally logging it synchronously to the
// storage queue first (§7.3, Figure 7), and a closed-loop client measuring
// per-round RTTs. Both sides are written against the PDPIX interface, so
// the same code runs over Catnip, Catmint, Catnap, the integrations and
// every baseline — which is the portability claim the paper demonstrates.
package echo

import (
	"fmt"
	"slices"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

// ServerConfig configures an echo server.
type ServerConfig struct {
	Addr core.Addr
	// LogName, when non-empty, makes the server push each message to this
	// storage log and wait for durability before echoing.
	LogName string
	// MaxConns bounds the concurrent connections served (0 = 16).
	MaxConns int
	// MessageSize, when non-zero, makes the server accumulate exactly
	// that many bytes before echoing (NetPIPE message semantics on a
	// byte stream). Zero echoes data as it arrives.
	MessageSize int
}

// pendingKind tags what a token in the wait set represents.
type pendingKind int

const (
	kindAccept pendingKind = iota
	kindPop
	kindPush
)

// pending is per-token server state. It holds no pointers: removing a
// token from a wait set of a thousand moves the entries after it without a
// write barrier each. A push's buffers wait beside it, in the server's
// replies table.
type pending struct {
	kind  pendingKind
	conn  core.QDesc
	reply int32 // kindPush: the push's entry in replies
}

// connAcc accumulates a partial message for MessageSize framing. It lives
// as long as its connection: segs collects the next message while the
// previous one's reply is in flight, and spare is the segment slice of a
// delivered reply, which the message after it collects into.
type connAcc struct {
	segs, spare []*memory.Buf
	bytes       int
}

// Server runs the echo server until the libOS stops. One thread serves
// every connection through a single wait_any set holding the accept, one
// pop per connection, and every in-flight reply push — replies complete
// asynchronously so a slow client never blocks the others (the paper's
// replacement for the epoll loop).
func Server(l demi.LibOS, cfg ServerConfig) error {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 16
	}
	lqd, err := l.Socket(core.SockStream)
	if err != nil {
		return err
	}
	if err := l.Bind(lqd, cfg.Addr); err != nil {
		return fmt.Errorf("echo: bind %v: %w", cfg.Addr, err)
	}
	if err := l.Listen(lqd, cfg.MaxConns); err != nil {
		return err
	}
	logQD := core.InvalidQD
	if cfg.LogName != "" {
		logQD, err = l.Open(cfg.LogName)
		if err != nil {
			return fmt.Errorf("echo: open log: %w", err)
		}
	}

	// state[i] is what tokens[i] stands for: the two are appended and
	// removed together.
	tokens := make([]core.QToken, 0, 2*cfg.MaxConns+1)
	state := make([]pending, 0, cap(tokens))
	add := func(qt core.QToken, p pending) {
		tokens = append(tokens, qt)
		state = append(state, p)
	}
	remove := func(i int) {
		tokens = slices.Delete(tokens, i, i+1)
		state = slices.Delete(state, i, i+1)
	}

	// replies[r] holds the buffers of the in-flight push whose pending
	// names r, until it completes; free lists the entries no push holds.
	replies := make([]core.SGArray, 0, cfg.MaxConns)
	free := make([]int32, 0, cfg.MaxConns)

	acc := make(map[core.QDesc]*connAcc)

	aqt, err := l.Accept(lqd)
	if err != nil {
		return err
	}
	add(aqt, pending{kind: kindAccept})

	for {
		i, ev, err := l.WaitAny(tokens, -1)
		if err != nil {
			return nil // stopped
		}
		p := state[i]
		switch p.kind {
		case kindAccept:
			remove(i)
			if ev.Err == nil {
				if pqt, perr := l.Pop(ev.NewQD); perr == nil {
					add(pqt, pending{kind: kindPop, conn: ev.NewQD})
				}
			}
			if aqt, err = l.Accept(lqd); err != nil {
				return err
			}
			add(aqt, pending{kind: kindAccept})

		case kindPush:
			remove(i)
			sga := replies[p.reply]
			replies[p.reply] = core.SGArray{} // keeps no reply reachable
			free = append(free, p.reply)
			sga.Free() // reply delivered: buffers come home
			if a := acc[p.conn]; a != nil && a.spare == nil {
				clear(sga.Segs)
				a.spare = sga.Segs[:0]
			}

		case kindPop:
			remove(i)
			if ev.Err != nil || len(ev.SGA.Segs) == 0 {
				if a := acc[p.conn]; a != nil {
					core.SGArray{Segs: a.segs}.Free() // a partial message nobody will echo
					delete(acc, p.conn)
				}
				l.Close(p.conn) // error or EOF
				continue
			}
			// NetPIPE framing: hold partial messages until complete.
			if cfg.MessageSize > 0 {
				a := acc[p.conn]
				if a == nil {
					a = &connAcc{}
					acc[p.conn] = a
				}
				a.segs = append(a.segs, ev.SGA.Segs...)
				a.bytes += ev.SGA.TotalLen()
				if a.bytes < cfg.MessageSize {
					if pqt, perr := l.Pop(p.conn); perr == nil {
						add(pqt, pending{kind: kindPop, conn: p.conn})
					}
					continue
				}
				ev.SGA = core.SGArray{Segs: a.segs}
				a.segs, a.spare, a.bytes = a.spare, nil, 0
			}
			// Optional synchronous logging before the reply (Figure 7:
			// NIC -> app -> disk -> NIC without copies). Durability is
			// part of the request's critical path, so this wait is
			// semantic, not incidental.
			if logQD != core.InvalidQD {
				if err := logSync(l, logQD, ev.SGA); err != nil {
					ev.SGA.Free()
					return err
				}
			}
			wqt, werr := l.Push(p.conn, ev.SGA)
			if werr != nil {
				ev.SGA.Free() // a refused push leaves the buffers with us
				delete(acc, p.conn)
				l.Close(p.conn)
				continue
			}
			r := int32(len(replies))
			if n := len(free); n > 0 {
				r, free = free[n-1], free[:n-1]
				replies[r] = ev.SGA
			} else {
				replies = append(replies, ev.SGA)
			}
			add(wqt, pending{kind: kindPush, conn: p.conn, reply: r})
			if pqt, perr := l.Pop(p.conn); perr == nil {
				add(pqt, pending{kind: kindPop, conn: p.conn})
			}
		}
	}
}

// logSync pushes sga to the storage log and waits until it is durable.
func logSync(l demi.LibOS, logQD core.QDesc, sga core.SGArray) error {
	qt, err := l.Push(logQD, sga)
	if err != nil {
		return err
	}
	if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
		return fmt.Errorf("echo: log write failed: %v %v", err, ev.Err)
	}
	return nil
}

// ClientResult holds a closed-loop client's measurements.
type ClientResult struct {
	RTTs      []time.Duration
	Elapsed   time.Duration // measured window (rounds after warmup)
	BytesPerS float64       // goodput over the measured rounds
}

// Client runs a closed-loop echo client: connect, then rounds of
// push-and-wait-for-reply of msgSize bytes. warmup rounds are excluded
// from the result.
func Client(l demi.LibOS, server core.Addr, msgSize, rounds, warmup int, clock sim.Clock) (ClientResult, error) {
	return ClientFrom(l, core.Addr{}, server, msgSize, rounds, warmup, clock)
}

// ClientFrom is Client with an explicit local endpoint, bound before
// connecting. Scale-out harnesses pick the source port so the flow's RSS
// hash steers it at a chosen server core; the zero Addr means "any".
func ClientFrom(l demi.LibOS, local, server core.Addr, msgSize, rounds, warmup int, clock sim.Clock) (_ ClientResult, err error) {
	qd, err := l.Socket(core.SockStream)
	if err != nil {
		return ClientResult{}, err
	}
	defer func() {
		if err != nil {
			l.Close(qd) // the server's pop sees end of stream
		}
	}()
	if local != (core.Addr{}) {
		if err := l.Bind(qd, local); err != nil {
			return ClientResult{}, err
		}
	}
	cqt, err := l.Connect(qd, server)
	if err != nil {
		return ClientResult{}, err
	}
	if ev, err := l.Wait(cqt); err != nil {
		return ClientResult{}, err
	} else if ev.Err != nil {
		return ClientResult{}, ev.Err
	}
	res := ClientResult{RTTs: make([]time.Duration, 0, rounds)}
	var measuredStart sim.Time
	for i := 0; i < rounds+warmup; i++ {
		if i == warmup {
			measuredStart = clock.Now()
		}
		start := clock.Now()
		msg := l.Heap().Alloc(msgSize)
		fill(msg, byte(i))
		wqt, err := l.Push(qd, core.SGA(msg))
		if err != nil {
			msg.Free() // failed push leaves ownership with us
			return res, err
		}
		msg.Free() // UAF protection covers the in-flight buffer
		if _, err := l.Wait(wqt); err != nil {
			return res, err
		}
		got := 0
		for got < msgSize {
			pqt, err := l.Pop(qd)
			if err != nil {
				return res, err
			}
			ev, err := l.Wait(pqt)
			if err != nil {
				return res, err
			}
			if ev.Err != nil {
				return res, ev.Err
			}
			if len(ev.SGA.Segs) == 0 {
				return res, core.ErrQueueClosed
			}
			got += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
		if i >= warmup {
			res.RTTs = append(res.RTTs, clock.Now().Sub(start))
		}
	}
	res.Elapsed = clock.Now().Sub(measuredStart)
	if res.Elapsed > 0 {
		res.BytesPerS = float64(2*msgSize*rounds) / res.Elapsed.Seconds()
	}
	l.Close(qd)
	return res, nil
}

// fill writes a recognizable pattern.
func fill(b *memory.Buf, seed byte) {
	p := b.Bytes()
	for i := range p {
		p[i] = seed + byte(i)
	}
}
