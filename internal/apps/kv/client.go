package kv

import (
	"fmt"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

// Client is a minimal RESP client over PDPIX, the redis-benchmark
// equivalent used by the Figure 11 harness.
type Client struct {
	lib demi.LibOS
	qd  core.QDesc
	buf []byte         // received bytes of replies not yet returned
	out []byte         // the request being sent
	seg [1]*memory.Buf // every push's segment
}

// Dial connects to the server.
func Dial(l demi.LibOS, server core.Addr) (*Client, error) {
	return DialFrom(l, core.Addr{}, server)
}

// DialFrom is Dial with an explicit local endpoint, bound before
// connecting. Scale-out harnesses pick the source port so the flow's RSS
// hash steers it at a chosen server core; the zero Addr means "any".
func DialFrom(l demi.LibOS, local, server core.Addr) (*Client, error) {
	qd, err := l.Socket(core.SockStream)
	if err != nil {
		return nil, err
	}
	if local != (core.Addr{}) {
		if err := l.Bind(qd, local); err != nil {
			return nil, err
		}
	}
	cqt, err := l.Connect(qd, server)
	if err != nil {
		return nil, err
	}
	ev, err := l.Wait(cqt)
	if err != nil {
		return nil, err
	}
	if ev.Err != nil {
		return nil, ev.Err
	}
	return &Client{lib: l, qd: qd}, nil
}

// Close releases the connection.
func (c *Client) Close() { c.lib.Close(c.qd) }

// Do sends one command and waits for its reply.
func (c *Client) Do(args ...[]byte) (Reply, error) {
	c.out = appendCommand(c.out[:0], args...)
	ev, refused, err := pushCopy(c.lib, &c.seg, c.qd, c.out)
	if refused != nil {
		return Reply{}, refused
	}
	if err != nil {
		return Reply{}, err
	}
	if ev.Err != nil {
		// Failed push (connection died): surface it now rather than
		// blocking on a reply that will never come.
		return Reply{}, ev.Err
	}
	for {
		if reply, n, ok, err := ParseReply(c.buf); ok {
			c.buf = c.buf[:copy(c.buf, c.buf[n:])]
			return reply, err
		}
		pqt, err := c.lib.Pop(c.qd)
		if err != nil {
			return Reply{}, err
		}
		ev, err := c.lib.Wait(pqt)
		if err != nil {
			return Reply{}, err
		}
		if ev.Err != nil {
			return Reply{}, ev.Err
		}
		if len(ev.SGA.Segs) == 0 {
			return Reply{}, core.ErrQueueClosed
		}
		c.buf = appendSegs(c.buf, ev.SGA)
		ev.SGA.Free()
	}
}

// Set stores key=value.
func (c *Client) Set(key, value []byte) error {
	r, err := c.Do([]byte("SET"), key, value)
	if err != nil {
		return err
	}
	if r.Kind == respError {
		return fmt.Errorf("kv: %s", r.Str)
	}
	return nil
}

// Get fetches key, returning nil for a missing key.
func (c *Client) Get(key []byte) ([]byte, error) {
	r, err := c.Do([]byte("GET"), key)
	if err != nil {
		return nil, err
	}
	if r.Kind == respError {
		return nil, fmt.Errorf("kv: %s", r.Str)
	}
	return r.Bulk, nil
}

// BenchResult summarizes a closed-loop run.
type BenchResult struct {
	Ops     int
	Elapsed time.Duration
	RTTs    []time.Duration
}

// OpsPerSec returns throughput.
func (r BenchResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Benchmark runs ops closed-loop operations: op i targets key chosen by
// keyFn(i); SET when setFrac of the index space, GET otherwise.
func (c *Client) Benchmark(ops int, valueSize int, keyFn func(i int) []byte, isSet func(i int) bool, clock sim.Clock) (BenchResult, error) {
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	res := BenchResult{RTTs: make([]time.Duration, 0, ops)}
	start := clock.Now()
	for i := 0; i < ops; i++ {
		opStart := clock.Now()
		var err error
		if isSet(i) {
			err = c.Set(keyFn(i), value)
		} else {
			_, err = c.Get(keyFn(i))
		}
		if err != nil {
			return res, err
		}
		res.RTTs = append(res.RTTs, clock.Now().Sub(opStart))
		res.Ops++
	}
	res.Elapsed = clock.Now().Sub(start)
	return res, nil
}
