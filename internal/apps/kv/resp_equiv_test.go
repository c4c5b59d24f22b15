package kv

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// refParseCommand is the parser ParseCommand replaced, kept as
// FuzzParseCommand's oracle: it copies every argument and reads lengths with
// strconv.Atoi. It differs from the old text twice. The bulk-length check is
// written so that it cannot overflow: the old len(buf[pos:]) < blen+2
// wrapped for a length within 2 of the largest int, and the slice
// expression after it panicked, so one 31-byte command could crash the
// server (the corpus keeps that input). And the argument array is not sized
// up front by the header's count, which cost 24 MB per hostile input and
// changes nothing the parser returns.
func refParseCommand(buf []byte) (cmd Command, n int, ok bool, err error) {
	if len(buf) == 0 {
		return nil, 0, false, nil
	}
	if buf[0] != respArray {
		line, consumed := readLine(buf)
		if consumed == 0 {
			return nil, 0, false, nil
		}
		var parts [][]byte
		start := -1
		for i := 0; i <= len(line); i++ {
			if i == len(line) || line[i] == ' ' {
				if start >= 0 {
					parts = append(parts, append([]byte(nil), line[start:i]...))
					start = -1
				}
			} else if start < 0 {
				start = i
			}
		}
		return parts, consumed, true, nil
	}
	line, consumed := readLine(buf)
	if consumed == 0 {
		return nil, 0, false, nil
	}
	count, cerr := strconv.Atoi(string(line[1:]))
	if cerr != nil || count < 0 || count > 1024*1024 {
		return nil, consumed, true, fmt.Errorf("kv: bad array header %q", line)
	}
	pos := consumed
	cmd = make(Command, 0, min(count, 64))
	for i := 0; i < count; i++ {
		hdr, hn := readLine(buf[pos:])
		if hn == 0 {
			return nil, 0, false, nil
		}
		if len(hdr) < 1 || hdr[0] != respBulk {
			return nil, pos + hn, true, fmt.Errorf("kv: expected bulk string, got %q", hdr)
		}
		blen, berr := strconv.Atoi(string(hdr[1:]))
		if berr != nil || blen < 0 {
			return nil, pos + hn, true, fmt.Errorf("kv: bad bulk length %q", hdr)
		}
		pos += hn
		if len(buf[pos:])-2 < blen {
			return nil, 0, false, nil
		}
		cmd = append(cmd, append([]byte(nil), buf[pos:pos+blen]...))
		pos += blen + 2
	}
	return cmd, pos, true, nil
}

// On any bytes, the in-place parser and the copying one agree on what was
// consumed, on completeness, on whether the input was malformed and on
// every argument's bytes; and the in-place parser's arguments are windows
// on the input: changing the input changes them.
func FuzzParseCommand(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		want, wn, wok, werr := refParseCommand(bytes.Clone(in))
		got, n, ok, err := ParseCommand(in)
		if n != wn || ok != wok || (err == nil) != (werr == nil) || len(got) != len(want) {
			t.Fatalf("%q: parsed (%d args, n %d, ok %v, err %v), reference (%d args, n %d, ok %v, err %v)",
				in, len(got), n, ok, err, len(want), wn, wok, werr)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%q: argument %d is %q, reference %q", in, i, got[i], want[i])
			}
		}
		for i := range in {
			in[i] ^= 0xff
		}
		for i, a := range got {
			for j := range a {
				if a[j] != want[i][j]^0xff {
					t.Fatalf("argument %d does not alias the input it was parsed from", i)
				}
			}
		}
	})
}

// Every branch of the store's reply switch, in one script on one store: the
// expected bytes are what Execute returned before the switch was rewritten
// in append style, and AppendReply onto a non-empty buffer appends exactly
// them.
func TestReplyGolden(t *testing.T) {
	script := []struct {
		args []string
		want string
	}{
		{[]string{"PING"}, "+PONG\r\n"},
		{[]string{"PING", "hello"}, "$5\r\nhello\r\n"},
		{[]string{"PING", ""}, "$0\r\n\r\n"},
		{[]string{"ECHO", "hi"}, "$2\r\nhi\r\n"},
		{[]string{"ECHO"}, "-ERR wrong number of arguments for 'ECHO' command\r\n"},
		{[]string{"ECHO", "a", "b"}, "-ERR wrong number of arguments for 'ECHO' command\r\n"},
		{[]string{"SET", "k", "v"}, "+OK\r\n"},
		{[]string{"SET", "k"}, "-ERR wrong number of arguments for 'SET' command\r\n"},
		{[]string{"SET", "empty", ""}, "+OK\r\n"},
		{[]string{"GET", "empty"}, "$0\r\n\r\n"},
		{[]string{"SETNX", "k", "other"}, ":0\r\n"},
		{[]string{"SETNX", "fresh", "1"}, ":1\r\n"},
		{[]string{"SETNX", "k"}, "-ERR wrong number of arguments for 'SETNX' command\r\n"},
		{[]string{"SETNX", "k", "a", "b"}, "-ERR wrong number of arguments for 'SETNX' command\r\n"},
		{[]string{"GET", "k"}, "$1\r\nv\r\n"},
		{[]string{"GET", "missing"}, "$-1\r\n"},
		{[]string{"GET"}, "-ERR wrong number of arguments for 'GET' command\r\n"},
		{[]string{"GET", "a", "b"}, "-ERR wrong number of arguments for 'GET' command\r\n"},
		{[]string{"get", "k"}, "$1\r\nv\r\n"},
		{[]string{"DEL", "k", "missing", "k"}, ":1\r\n"},
		{[]string{"DEL"}, "-ERR wrong number of arguments for 'DEL' command\r\n"},
		{[]string{"EXISTS", "fresh", "missing", "fresh"}, ":2\r\n"},
		{[]string{"EXISTS"}, "-ERR wrong number of arguments for 'EXISTS' command\r\n"},
		{[]string{"INCR", "n"}, ":1\r\n"},
		{[]string{"INCR", "n"}, ":2\r\n"},
		{[]string{"DECR", "n"}, ":1\r\n"},
		{[]string{"DECR", "m"}, ":-1\r\n"},
		{[]string{"INCR"}, "-ERR wrong number of arguments for 'INCR' command\r\n"},
		{[]string{"DECR", "a", "b"}, "-ERR wrong number of arguments for 'DECR' command\r\n"},
		{[]string{"SET", "s", "abc"}, "+OK\r\n"},
		{[]string{"INCR", "s"}, "-ERR value is not an integer or out of range\r\n"},
		{[]string{"DECR", "s"}, "-ERR value is not an integer or out of range\r\n"},
		{[]string{"SET", "big", "9223372036854775807"}, "+OK\r\n"},
		{[]string{"INCR", "big"}, ":-9223372036854775808\r\n"},
		{[]string{"APPEND", "s", "xyz"}, ":6\r\n"},
		{[]string{"APPEND", "newkey", "xy"}, ":2\r\n"},
		{[]string{"APPEND", "s"}, "-ERR wrong number of arguments for 'APPEND' command\r\n"},
		{[]string{"STRLEN", "s"}, ":6\r\n"},
		{[]string{"STRLEN", "missing"}, ":0\r\n"},
		{[]string{"STRLEN"}, "-ERR wrong number of arguments for 'STRLEN' command\r\n"},
		{[]string{"DBSIZE"}, ":7\r\n"},
		{[]string{"FLUSHALL"}, "+OK\r\n"},
		{[]string{"DBSIZE"}, ":0\r\n"},
		{[]string{"GET", "s"}, "$-1\r\n"},
		{[]string{}, "-ERR empty command\r\n"},
		{[]string{""}, "-ERR empty command\r\n"},
		{[]string{"NOSUCH", "a"}, "-ERR unknown command 'NOSUCH'\r\n"},
		{[]string{"nosuch"}, "-ERR unknown command 'NOSUCH'\r\n"},
		{[]string{"REWRITEAOF"}, "-ERR unknown command 'REWRITEAOF'\r\n"},
	}
	executed, appended := NewStore(), NewStore() // the same script, one store each
	prefix := []byte("earlier replies|")
	for _, step := range script {
		var cmd Command
		for _, a := range step.args {
			cmd = append(cmd, []byte(a))
		}
		name := strings.Join(step.args, " ")
		if got := executed.Execute(cmd); string(got) != step.want {
			t.Errorf("%s: Execute gave %q, want %q", name, got, step.want)
		}
		dst := appended.AppendReply(bytes.Clone(prefix), cmd)
		if !bytes.HasPrefix(dst, prefix) || string(dst[len(prefix):]) != step.want {
			t.Errorf("%s: AppendReply gave %q after the prefix, want %q", name, dst[len(prefix):], step.want)
		}
	}
}

// A zero-length argument parses to an empty argument, not a missing one, so
// ECHO "" replies with the empty bulk string, as Redis does. (The copying
// parser's copy of nothing was nil, and the reply the null bulk string.)
func TestEmptyArgumentIsNotNull(t *testing.T) {
	cmd, _, ok, err := ParseCommand([]byte("*2\r\n$4\r\nECHO\r\n$0\r\n\r\n"))
	if !ok || err != nil {
		t.Fatalf("parse: ok %v, err %v", ok, err)
	}
	if got := NewStore().Execute(cmd); string(got) != "$0\r\n\r\n" {
		t.Errorf("ECHO \"\" replied %q, want the empty bulk string", got)
	}
}
