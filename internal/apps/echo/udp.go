package echo

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/sim"
)

// ServerUDP runs a datagram echo server: every received datagram is sent
// back to its source (optionally after synchronous logging). It runs until
// the libOS stops.
func ServerUDP(l demi.LibOS, cfg ServerConfig) error {
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		return err
	}
	if err := l.Bind(qd, cfg.Addr); err != nil {
		return err
	}
	logQD := core.InvalidQD
	if cfg.LogName != "" {
		logQD, err = l.Open(cfg.LogName)
		if err != nil {
			return err
		}
	}
	for {
		pqt, err := l.Pop(qd)
		if err != nil {
			return err
		}
		ev, err := l.Wait(pqt)
		if err != nil {
			return nil // stopped
		}
		if ev.Err != nil {
			continue
		}
		if logQD != core.InvalidQD {
			if err := logSync(l, logQD, ev.SGA); err != nil {
				ev.SGA.Free()
				return err
			}
		}
		wqt, werr := l.PushTo(qd, ev.SGA, ev.From)
		if werr != nil {
			ev.SGA.Free() // a refused push leaves the buffers with us
			continue
		}
		if _, werr := l.Wait(wqt); werr != nil {
			return nil
		}
		ev.SGA.Free()
	}
}

// ClientUDP runs a closed-loop datagram echo client against server.
func ClientUDP(l demi.LibOS, server core.Addr, msgSize, rounds, warmup int, clock sim.Clock) (_ ClientResult, err error) {
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		return ClientResult{}, err
	}
	defer func() {
		if err != nil {
			l.Close(qd)
		}
	}()
	res := ClientResult{RTTs: make([]time.Duration, 0, rounds)}
	var measuredStart sim.Time
	for i := 0; i < rounds+warmup; i++ {
		if i == warmup {
			measuredStart = clock.Now()
		}
		start := clock.Now()
		msg := l.Heap().Alloc(msgSize)
		fill(msg, byte(i))
		wqt, err := l.PushTo(qd, core.SGA(msg), server)
		if err != nil {
			msg.Free() // failed push leaves ownership with us
			return res, err
		}
		msg.Free()
		if _, err := l.Wait(wqt); err != nil {
			return res, err
		}
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
		ev.SGA.Free()
		if i >= warmup {
			res.RTTs = append(res.RTTs, clock.Now().Sub(start))
		}
	}
	elapsed := clock.Now().Sub(measuredStart)
	if elapsed > 0 {
		res.BytesPerS = float64(2*msgSize*rounds) / elapsed.Seconds()
	}
	l.Close(qd)
	return res, nil
}
