package kv

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The RESP parser faces untrusted client bytes: it must never panic and
// must always make progress (consume bytes or report incomplete).
func TestParseCommandNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		cmd, n, complete, _ := ParseCommand(b)
		if complete && n <= 0 && len(b) > 0 {
			return false // claimed completion without consuming
		}
		_ = cmd
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// ParseReply faces whatever the other end of the connection sends. The
// fuzzer's bytes sent as a bulk payload come back as themselves, an empty
// payload as empty rather than null. As a reply, on any bytes, ParseReply
// must not panic or claim more bytes than it was given. A reply it completes
// must not complete sooner: every proper prefix is incomplete or fails with
// the same error. A reply it parses without error, re-encoded with the
// server's encoder, parses back to itself.
func FuzzParseReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		payload := appendBulk(nil, in)
		if got, n, ok, err := ParseReply(payload); !ok || err != nil || n != len(payload) || got.Bulk == nil || !bytes.Equal(got.Bulk, in) {
			t.Fatalf("payload %q encoded as %q parses as %+v (consumed %d, complete %v, err %v)", in, payload, got, n, ok, err)
		}
		r, n, ok, err := ParseReply(in)
		if n < 0 || n > len(in) || (!ok && (n != 0 || err != nil)) {
			t.Fatalf("%q: consumed %d, complete %v, err %v", in, n, ok, err)
		}
		if !ok {
			return
		}
		for k := 0; k < n; k++ {
			if k == 512 && n > 1024 {
				k = n - 512 // the start and the end of a long reply
			}
			_, pn, pok, perr := ParseReply(in[:k])
			if pok && (err == nil || perr == nil || perr.Error() != err.Error()) {
				t.Fatalf("%q: its %d-byte prefix completes (consumed %d, err %v), the whole (consumed %d, err %v)",
					in, k, pn, perr, n, err)
			}
		}
		if err == nil {
			var enc []byte
			switch r.Kind {
			case respSimple, respError:
				enc = appendLine(nil, r.Kind, r.Str)
			case respInteger:
				enc = appendInteger(nil, r.Int)
			case respBulk:
				enc = appendBulkOrNull(nil, r.Bulk)
			}
			got, gn, gok, gerr := ParseReply(enc)
			if !gok || gerr != nil || gn != len(enc) || got.Kind != r.Kind || got.Str != r.Str || got.Int != r.Int ||
				!bytes.Equal(got.Bulk, r.Bulk) || (got.Bulk == nil) != (r.Bulk == nil) {
				t.Fatalf("%q parsed as %+v, re-encoded as %q, which parses as %+v (consumed %d, complete %v, err %v)",
					in, r, enc, got, gn, gok, gerr)
			}
		}
	})
}

// Adversarial RESP headers must be rejected without huge allocations.
func TestParseCommandHostileHeaders(t *testing.T) {
	for _, in := range []string{
		"*99999999999999999999\r\n",    // overflow array count
		"*1048577\r\n",                 // over the element cap
		"*2\r\n$-5\r\nxx\r\n",          // negative bulk length
		"*1\r\n$99999999999999999\r\n", // overflow bulk length
		"*1\r\nnotabulk\r\n",           // wrong element type
	} {
		cmd, _, complete, err := ParseCommand([]byte(in))
		if complete && err == nil && cmd != nil {
			t.Errorf("hostile input %q accepted as %q", in, cmd)
		}
	}
}

// Execute must tolerate arbitrary command arrays.
func TestExecuteNeverPanics(t *testing.T) {
	f := func(args [][]byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		s := NewStore()
		reply := s.Execute(Command(args))
		return len(reply) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
