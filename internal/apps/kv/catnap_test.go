package kv

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"demikernel/internal/catnap"
	"demikernel/internal/core"
	"demikernel/internal/demi"
)

// freePort asks the kernel for a loopback port nothing holds. A fixed port
// in Linux's ephemeral range (32768–60999) can be held by another socket,
// a client's TIME_WAIT included, when the test binds it.
func freePort(t *testing.T) uint16 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return uint16(ln.Addr().(*net.TCPAddr).Port)
}

// serve runs the KV server on its own goroutine; the channel receives what
// Server returns.
func serve(l demi.LibOS, cfg ServerConfig, stats *ServerStats) <-chan error {
	done := make(chan error, 1)
	go func() { done <- Server(l, cfg, stats) }()
	return done
}

// dialRetry dials with retries while the server goroutine binds. A server
// that returns first — a failed Bind — fails the test with its error.
func dialRetry(t *testing.T, l demi.LibOS, addr core.Addr, served <-chan error) *Client {
	t.Helper()
	for attempt := 0; ; attempt++ {
		c, err := Dial(l, addr)
		if err == nil {
			return c
		}
		select {
		case serr := <-served:
			t.Fatalf("server on %v returned before a client connected: %v", addr, serr)
		default:
		}
		if attempt > 200 {
			t.Fatalf("dial %v: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The portability claim (paper §1): the same application code runs over
// the kernel-bypass libOSes and the POSIX libOS unchanged. These tests run
// the identical kv server/client on the real OS through Catnap.

func TestKVServerOnRealOS(t *testing.T) {
	srv := catnap.New("")
	defer srv.Shutdown()
	addr := core.Addr{Port: freePort(t)}
	var stats ServerStats
	served := serve(srv, ServerConfig{Addr: addr}, &stats)

	cliOS := catnap.New("")
	defer cliOS.Shutdown()
	c := dialRetry(t, cliOS, addr, served)
	defer c.Close()
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if err := c.Set(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	v, err := c.Get([]byte("key-7"))
	if err != nil || !bytes.Equal(v, []byte("val-7")) {
		t.Fatalf("get = %q, %v", v, err)
	}
	r, err := c.Do([]byte("DBSIZE"))
	if err != nil || r.Int != 20 {
		t.Fatalf("dbsize = %+v, %v", r, err)
	}
}

func TestKVServerAOFOnRealOS(t *testing.T) {
	dir := t.TempDir()
	addr := core.Addr{Port: freePort(t)}
	srv := catnap.New(dir)
	defer srv.Shutdown()
	var stats ServerStats
	served := serve(srv, ServerConfig{Addr: addr, AOFName: "aof.log"}, &stats)

	cliOS := catnap.New("")
	defer cliOS.Shutdown()
	c := dialRetry(t, cliOS, addr, served)
	c.Set([]byte("persist"), []byte("me"))
	c.Close()

	// "Restart" on the same directory: the AOF replays.
	srv2 := catnap.New(dir)
	defer srv2.Shutdown()
	addr2 := core.Addr{Port: freePort(t)}
	var stats2 ServerStats
	served2 := serve(srv2, ServerConfig{Addr: addr2, AOFName: "aof.log"}, &stats2)
	c2 := dialRetry(t, cliOS, addr2, served2)
	defer c2.Close()
	v, err := c2.Get([]byte("persist"))
	if err != nil || !bytes.Equal(v, []byte("me")) {
		t.Fatalf("after restart get = %q, %v (replayed=%d)", v, err, stats2.ReplayedRecords)
	}
}
