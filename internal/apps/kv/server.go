package kv

import (
	"fmt"
	"slices"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
)

// ServerConfig configures the KV server.
type ServerConfig struct {
	Addr core.Addr
	// AOFName enables the append-only file: every write command is pushed
	// to this storage log and made durable before the reply (the paper
	// fsyncs after each SET for strong guarantees, §7.5).
	AOFName string
	// MaxConns bounds concurrent connections (0 = 64).
	MaxConns int
}

// ServerStats counts server activity.
type ServerStats struct {
	Commands, Writes uint64
	AOFRecords       uint64
	AOFErrors        uint64
	ReplayedRecords  uint64
	Connections      uint64
}

// conn is one connection: its descriptor and the received bytes of
// commands not yet complete, kept at the front of buf.
type conn struct {
	qd  core.QDesc
	buf []byte
}

// server is one Server call's state, reused by every command of every
// connection.
type server struct {
	l       demi.LibOS
	store   *Store
	logQD   core.QDesc
	stats   *ServerStats
	cmd     Command        // the command being served; its arguments alias a conn's buf
	replies []byte         // the replies to one pop's commands
	rec     []byte         // one AOF record
	seg     [1]*memory.Buf // every push's segment
}

// Server runs the KV server until the libOS stops. Startup replays the
// AOF (if any); the event loop is pop/push/wait_any over all connections.
func Server(l demi.LibOS, cfg ServerConfig, stats *ServerStats) error {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 64
	}
	s := &server{l: l, store: NewStore(), logQD: core.InvalidQD, stats: stats}
	if cfg.AOFName != "" {
		var err error
		if s.logQD, err = l.Open(cfg.AOFName); err != nil {
			return fmt.Errorf("kv: open aof: %w", err)
		}
		if err := replayAOF(l, s.logQD, s.store, stats); err != nil {
			return fmt.Errorf("kv: aof replay: %w", err)
		}
	}

	lqd, err := l.Socket(core.SockStream)
	if err != nil {
		return err
	}
	if err := l.Bind(lqd, cfg.Addr); err != nil {
		return err
	}
	if err := l.Listen(lqd, cfg.MaxConns); err != nil {
		return err
	}
	aqt, err := l.Accept(lqd)
	if err != nil {
		return err
	}
	// tokens[i] is the operation pending for conns[i]: the listener's
	// accept at 0 (conns[0] is nil), a pop for every connection after it.
	tokens := []core.QToken{aqt}
	conns := []*conn{nil}
	drop := func(i int) {
		l.Close(conns[i].qd)
		tokens = slices.Delete(tokens, i, i+1)
		conns = slices.Delete(conns, i, i+1)
	}

	for {
		i, ev, err := l.WaitAny(tokens, -1)
		if err != nil {
			return nil // stopped
		}
		if ev.Op == core.OpAccept {
			if ev.Err == nil {
				stats.Connections++
				c := &conn{qd: ev.NewQD}
				if pqt, perr := l.Pop(c.qd); perr == nil {
					tokens = append(tokens, pqt)
					conns = append(conns, c)
				}
			}
			if aqt, err = l.Accept(lqd); err != nil {
				return err
			}
			tokens[i] = aqt
			continue
		}
		// Pop on a connection.
		c := conns[i]
		if ev.Err != nil || len(ev.SGA.Segs) == 0 {
			drop(i)
			continue
		}
		c.buf = appendSegs(c.buf, ev.SGA)
		ev.SGA.Free()
		reply, ok, fatal := s.serve(c)
		if fatal != nil {
			return nil
		}
		if !ok {
			// Malformed protocol: hang up.
			drop(i)
			continue
		}
		if len(reply) > 0 {
			if _, refused, err := pushCopy(l, &s.seg, c.qd, reply); refused != nil {
				drop(i)
				continue
			} else if err != nil {
				return nil
			}
		}
		pqt, perr := l.Pop(c.qd)
		if perr != nil {
			drop(i)
			continue
		}
		tokens[i] = pqt
	}
}

// appendSegs appends the bytes of sga's segments to dst.
func appendSegs(dst []byte, sga core.SGArray) []byte {
	for _, b := range sga.Segs {
		dst = append(dst, b.Bytes()...)
	}
	return dst
}

// pushCopy copies b into one DMA buffer, pushes it to qd as the one segment
// of *seg and waits for the push. refused is Push's own error, after which
// the buffer, never handed over, is freed; err is Wait's, which only a
// libOS that is stopping returns.
//
// The caller owns *seg and reuses it for every push. That is safe because
// each libOS the KV app runs over (Catnip, Catnap, Catmint, Cattree and the
// kernel baselines around them) has read the array by the time the push
// completes; on an ownership-transfer queue (Catmem, Queue()) the array
// itself would travel on to the popper.
func pushCopy(l demi.LibOS, seg *[1]*memory.Buf, qd core.QDesc, b []byte) (ev core.QEvent, refused, err error) {
	buf := memory.CopyFrom(l.Heap(), b)
	seg[0] = buf
	qt, refused := l.Push(qd, core.SGArray{Segs: seg[:]})
	if refused != nil {
		buf.Free()
		return ev, refused, nil
	}
	if ev, err = l.Wait(qt); err != nil {
		return ev, nil, err
	}
	buf.Free()
	return ev, nil, nil
}

// serve executes every complete command in c's buffer and returns their
// replies, which stay valid until the next call. ok is false on a protocol
// error; a non-nil error signals libOS shutdown. What serve consumed, it
// removes from the front of c.buf.
func (s *server) serve(c *conn) (replies []byte, ok bool, err error) {
	replies = s.replies[:0]
	off := 0
	for {
		cmd, n, complete, perr := parseCommand(s.cmd, c.buf[off:])
		if perr != nil {
			return nil, false, nil
		}
		if !complete {
			break
		}
		s.cmd = cmd
		off += n
		s.stats.Commands++
		name := cmd.Name()
		if s.logQD != core.InvalidQD {
			// AOF rewrite: compact the log to one SET per live key (Redis's
			// BGREWRITEAOF, done in the foreground as the paper's Cattree is
			// a synchronous log).
			if name == "REWRITEAOF" {
				if err := s.rewriteAOF(); err != nil {
					return nil, false, err
				}
				replies = appendLine(replies, respSimple, "OK")
				continue
			}
			if IsWrite(name) {
				s.stats.Writes++
				s.rec = appendCommand(s.rec[:0], cmd...)
				ev, failed, err := pushCopy(s.l, &s.seg, s.logQD, s.rec)
				if err != nil {
					return nil, false, err // waiter shutdown is fatal, not an I/O error
				}
				if failed == nil {
					failed = ev.Err
				}
				if failed != nil {
					// Degrade, don't die: the write is refused (it was never
					// durable) and the client told why; reads and the server
					// itself keep going.
					s.stats.AOFErrors++
					replies = appendLine(replies, respError, "ERR aof write failed: ", failed.Error())
					continue
				}
				s.stats.AOFRecords++
			}
		}
		replies = s.store.AppendReply(replies, cmd)
	}
	c.buf = c.buf[:copy(c.buf, c.buf[off:])]
	s.replies = replies
	return replies, true, nil
}

// rewriteAOF truncates the log and writes a snapshot: one SET per key.
func (s *server) rewriteAOF() error {
	st, ok := s.l.(demi.StorageOS)
	if !ok {
		return core.ErrNotSupported
	}
	if err := st.Truncate(s.logQD); err != nil {
		return err
	}
	for _, cmd := range s.store.Snapshot() {
		s.rec = appendCommand(s.rec[:0], cmd...)
		ev, refused, err := pushCopy(s.l, &s.seg, s.logQD, s.rec)
		if refused != nil {
			return refused
		}
		if err != nil {
			return err
		}
		if ev.Err != nil {
			return ev.Err
		}
		s.stats.AOFRecords++
	}
	return nil
}

// replayAOF re-executes the write log from the start (paper: Redis AOF
// recovery; exercised after crashes in the tests).
func replayAOF(l demi.LibOS, logQD core.QDesc, store *Store, stats *ServerStats) error {
	if s, ok := l.(demi.StorageOS); ok {
		s.Seek(logQD, 0)
	}
	var data []byte
	var cmd Command
	for {
		pqt, err := l.Pop(logQD)
		if err != nil {
			return err
		}
		ev, err := l.Wait(pqt)
		if err != nil {
			return err
		}
		if ev.Err != nil {
			return ev.Err
		}
		if len(ev.SGA.Segs) == 0 {
			return nil // EOF
		}
		data = appendSegs(data[:0], ev.SGA)
		ev.SGA.Free()
		for off := 0; off < len(data); {
			parsed, n, ok, perr := parseCommand(cmd, data[off:])
			if perr != nil || !ok {
				break
			}
			cmd, off = parsed, off+n
			store.Execute(cmd)
			stats.ReplayedRecords++
		}
	}
}
