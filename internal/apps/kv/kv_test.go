package kv

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestStoreBasicOps(t *testing.T) {
	s := NewStore()
	if got := s.Execute(Command{[]byte("SET"), []byte("k"), []byte("v")}); !bytes.Equal(got, SimpleString("OK")) {
		t.Fatalf("SET reply %q", got)
	}
	if got := s.Execute(Command{[]byte("GET"), []byte("k")}); !bytes.Equal(got, BulkString([]byte("v"))) {
		t.Fatalf("GET reply %q", got)
	}
	if got := s.Execute(Command{[]byte("GET"), []byte("missing")}); !bytes.Equal(got, BulkString(nil)) {
		t.Fatalf("GET missing reply %q", got)
	}
	if got := s.Execute(Command{[]byte("EXISTS"), []byte("k"), []byte("missing")}); !bytes.Equal(got, Integer(1)) {
		t.Fatalf("EXISTS reply %q", got)
	}
	if got := s.Execute(Command{[]byte("DEL"), []byte("k")}); !bytes.Equal(got, Integer(1)) {
		t.Fatalf("DEL reply %q", got)
	}
	if s.Len() != 0 {
		t.Fatal("store not empty after DEL")
	}
}

// Snapshot lists its keys in key order, whatever order the map holds them
// in: an AOF rewrite is the same bytes on every run.
func TestSnapshotInKeyOrder(t *testing.T) {
	s := NewStore()
	for i := 31; i >= 0; i-- {
		s.Execute(Command{[]byte("SET"), []byte(fmt.Sprintf("key%02d", i)), []byte("v")})
	}
	snap := s.Snapshot()
	if len(snap) != 32 {
		t.Fatalf("snapshot has %d commands, want 32", len(snap))
	}
	for i, cmd := range snap {
		if want := fmt.Sprintf("key%02d", i); string(cmd[1]) != want {
			t.Fatalf("snapshot command %d sets %q, want %q", i, cmd[1], want)
		}
	}
}

func TestStoreIncrDecr(t *testing.T) {
	s := NewStore()
	for want := int64(1); want <= 3; want++ {
		if got := s.Execute(Command{[]byte("INCR"), []byte("n")}); !bytes.Equal(got, Integer(want)) {
			t.Fatalf("INCR -> %q, want %d", got, want)
		}
	}
	if got := s.Execute(Command{[]byte("DECR"), []byte("n")}); !bytes.Equal(got, Integer(2)) {
		t.Fatalf("DECR -> %q", got)
	}
	s.Execute(Command{[]byte("SET"), []byte("s"), []byte("abc")})
	if got := s.Execute(Command{[]byte("INCR"), []byte("s")}); got[0] != '-' {
		t.Fatalf("INCR on string should error, got %q", got)
	}
}

func TestStoreAppendStrlenCase(t *testing.T) {
	s := NewStore()
	s.Execute(Command{[]byte("append"), []byte("k"), []byte("ab")}) // lower-case name
	s.Execute(Command{[]byte("APPEND"), []byte("k"), []byte("cd")})
	if got := s.Execute(Command{[]byte("STRLEN"), []byte("k")}); !bytes.Equal(got, Integer(4)) {
		t.Fatalf("STRLEN %q", got)
	}
	if got := s.Execute(Command{[]byte("GET"), []byte("k")}); !bytes.Equal(got, BulkString([]byte("abcd"))) {
		t.Fatalf("GET %q", got)
	}
}

func TestStoreErrors(t *testing.T) {
	s := NewStore()
	for _, cmd := range []Command{
		{[]byte("SET"), []byte("k")},
		{[]byte("GET")},
		{[]byte("NOSUCH")},
		{},
	} {
		if got := s.Execute(cmd); len(got) == 0 || got[0] != '-' {
			t.Errorf("command %v should error, got %q", cmd, got)
		}
	}
}

func TestParseCommandRoundtrip(t *testing.T) {
	enc := EncodeCommand([]byte("SET"), []byte("key"), []byte("value with spaces"))
	cmd, n, ok, err := ParseCommand(enc)
	if err != nil || !ok || n != len(enc) {
		t.Fatalf("parse: ok=%v n=%d err=%v", ok, n, err)
	}
	if cmd.Name() != "SET" || string(cmd[2]) != "value with spaces" {
		t.Fatalf("cmd = %q", cmd)
	}
}

func TestParseCommandIncremental(t *testing.T) {
	enc := EncodeCommand([]byte("GET"), []byte("abc"))
	for cut := 0; cut < len(enc); cut++ {
		_, _, ok, err := ParseCommand(enc[:cut])
		if err != nil {
			t.Fatalf("partial at %d errored: %v", cut, err)
		}
		if ok {
			t.Fatalf("partial buffer at %d parsed as complete", cut)
		}
	}
}

func TestParseInlineCommand(t *testing.T) {
	cmd, n, ok, err := ParseCommand([]byte("PING hello\r\nrest"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if n != len("PING hello\r\n") {
		t.Fatalf("consumed %d", n)
	}
	if cmd.Name() != "PING" || string(cmd[1]) != "hello" {
		t.Fatalf("cmd = %q", cmd)
	}
}

func TestParseCommandPipelined(t *testing.T) {
	buf := append(EncodeCommand([]byte("SET"), []byte("a"), []byte("1")),
		EncodeCommand([]byte("GET"), []byte("a"))...)
	c1, n1, ok, _ := ParseCommand(buf)
	if !ok || c1.Name() != "SET" {
		t.Fatal("first parse failed")
	}
	c2, n2, ok, _ := ParseCommand(buf[n1:])
	if !ok || c2.Name() != "GET" || n1+n2 != len(buf) {
		t.Fatal("second parse failed")
	}
}

func TestReplyRoundtrips(t *testing.T) {
	cases := []struct {
		enc  []byte
		kind byte
	}{
		{SimpleString("OK"), '+'},
		{ErrorReply("ERR boom"), '-'},
		{Integer(-42), ':'},
		{BulkString([]byte("hello")), '$'},
		{BulkString(nil), '$'},
	}
	for _, c := range cases {
		r, n, ok, err := ParseReply(c.enc)
		if err != nil || !ok || n != len(c.enc) {
			t.Fatalf("reply %q: ok=%v err=%v", c.enc, ok, err)
		}
		if r.Kind != c.kind {
			t.Errorf("reply %q kind = %c", c.enc, r.Kind)
		}
	}
	r, _, ok, _ := ParseReply(Integer(-42))
	if !ok || r.Int != -42 {
		t.Error("integer value lost")
	}
	r, _, ok, _ = ParseReply(BulkString(nil))
	if !ok || r.Bulk != nil {
		t.Error("null bulk not nil")
	}
}

// Property: any command of arbitrary binary arguments survives
// encode/parse roundtrip, even with CRLF bytes inside values.
func TestCommandRoundtripProperty(t *testing.T) {
	f := func(args [][]byte) bool {
		if len(args) == 0 {
			args = [][]byte{[]byte("PING")}
		}
		enc := EncodeCommand(args...)
		cmd, n, ok, err := ParseCommand(enc)
		if err != nil || !ok || n != len(enc) || len(cmd) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(cmd[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: executing the same command sequence twice on fresh stores
// gives identical replies (determinism), and SET/GET agree.
func TestStoreSetGetProperty(t *testing.T) {
	f := func(keys []string, values [][]byte) bool {
		s := NewStore()
		n := len(keys)
		if len(values) < n {
			n = len(values)
		}
		for i := 0; i < n; i++ {
			s.Execute(Command{[]byte("SET"), []byte(keys[i]), values[i]})
		}
		for i := 0; i < n; i++ {
			// The last write for each key wins.
			want := values[i]
			for j := i + 1; j < n; j++ {
				if keys[j] == keys[i] {
					want = values[j]
				}
			}
			if want == nil {
				want = []byte{} // the store holds empty, not null
			}
			got := s.Execute(Command{[]byte("GET"), []byte(keys[i])})
			if !bytes.Equal(got, BulkString(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUpperHelper(t *testing.T) {
	for in, want := range map[string]string{"get": "GET", "GET": "GET", "GeT": "GET", "": ""} {
		if got := upper(in); got != want {
			t.Errorf("upper(%q) = %q", in, got)
		}
	}
}

func TestEncodeCommandFormat(t *testing.T) {
	got := EncodeCommand([]byte("GET"), []byte("k"))
	want := "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	if string(got) != want {
		t.Errorf("encoding = %q, want %q", got, want)
	}
}

// The encoders size their buffer once and append digits into it; the bytes
// on the wire are what the fmt.Sprintf form they replaced produced, for
// every argument count and around every change in the length's digit count.
func TestEncodersMatchFmtForm(t *testing.T) {
	fmtCommand := func(args ...[]byte) []byte {
		out := []byte(fmt.Sprintf("*%d\r\n", len(args)))
		for _, a := range args {
			out = append(out, fmt.Sprintf("$%d\r\n", len(a))...)
			out = append(out, a...)
			out = append(out, '\r', '\n')
		}
		return out
	}
	fmtBulk := func(b []byte) []byte {
		if b == nil {
			return []byte("$-1\r\n")
		}
		out := []byte(fmt.Sprintf("$%d\r\n", len(b)))
		out = append(out, b...)
		return append(out, '\r', '\n')
	}
	var values [][]byte
	for _, n := range []int{0, 1, 9, 10, 99, 100, 99999} {
		values = append(values, bytes.Repeat([]byte{'v'}, n))
	}
	commands := [][][]byte{{}, {[]byte("PING")}}
	for _, v := range values {
		commands = append(commands, [][]byte{[]byte("GET"), v}, [][]byte{[]byte("SET"), v, v}, [][]byte{v})
	}
	commands = append(commands, make([][]byte, 10), make([][]byte, 100)) // two- and three-digit counts, nil arguments
	for _, args := range commands {
		got, want := EncodeCommand(args...), fmtCommand(args...)
		if !bytes.Equal(got, want) {
			t.Errorf("EncodeCommand of %d arguments = %.40q, want %.40q", len(args), got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("EncodeCommand of %d arguments sized its buffer %d for %d bytes", len(args), cap(got), len(got))
		}
	}
	for _, v := range append(values, nil) {
		got, want := BulkString(v), fmtBulk(v)
		if !bytes.Equal(got, want) || (v != nil && cap(got) != len(got)) {
			t.Errorf("BulkString of %d bytes (nil %v) = %.40q (cap %d), want %.40q", len(v), v == nil, got, cap(got), want)
		}
	}
	set := [][]byte{[]byte("SET"), []byte("key:000017"), bytes.Repeat([]byte{'v'}, 64)}
	if n := testing.AllocsPerRun(100, func() { EncodeCommand(set...) }); n != 1 {
		t.Errorf("EncodeCommand allocates %v objects, want its buffer only", n)
	}
}
