// Package kv is a functional reimplementation of the paper's Redis port
// (§7.2, §7.5): an in-memory key-value server speaking RESP2 over PDPIX
// queues, with optional append-only-file persistence through the storage
// libOS (fsync per write, as the paper configures) and AOF replay on
// startup. The server's event loop is the paper's modified Redis loop:
// pop/push plus wait_any instead of epoll.
package kv

import (
	"fmt"
	"strconv"
)

// RESP2 wire types.
const (
	respSimple  = '+'
	respError   = '-'
	respInteger = ':'
	respBulk    = '$'
	respArray   = '*'
)

// Command is one parsed client command: an array of bulk strings. The
// arguments of a parsed command are not copies: they alias the buffer it
// was parsed from.
type Command [][]byte

// commandNames are the commands the store and the server serve. Name
// returns these very strings, so naming a known command allocates nothing.
var commandNames = [...]string{"GET", "SET", "PING", "ECHO", "SETNX", "DEL", "EXISTS",
	"INCR", "DECR", "APPEND", "STRLEN", "DBSIZE", "FLUSHALL", "REWRITEAOF"}

// Name returns the upper-cased command name.
func (c Command) Name() string {
	if len(c) == 0 {
		return ""
	}
	for _, name := range commandNames {
		if equalFold(c[0], name) {
			return name
		}
	}
	return upper(string(c[0]))
}

// equalFold reports whether b is the upper-case name in any case.
func equalFold(b []byte, name string) bool {
	if len(b) != len(name) {
		return false
	}
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// upper avoids strings.ToUpper allocation for the common all-caps case.
func upper(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= 'a' && s[i] <= 'z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if b[j] >= 'a' && b[j] <= 'z' {
					b[j] -= 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// ParseCommand incrementally parses one RESP command (or inline command)
// from buf. It returns the command, the bytes consumed, and whether a full
// command was present; a nil command with ok=true and n>0 means a protocol
// error was consumed. The arguments alias buf: they hold whatever buf holds,
// so a caller that keeps one past its next write to buf copies it.
func ParseCommand(buf []byte) (cmd Command, n int, ok bool, err error) {
	return parseCommand(nil, buf)
}

// minBulk is the shortest element a RESP array can hold, "$0\r\n\r\n".
const minBulk = 6

// parseCommand is ParseCommand reusing dst's array for the arguments, so a
// server parses every command of every connection into one array.
func parseCommand(dst Command, buf []byte) (Command, int, bool, error) {
	line, pos := readLine(buf)
	if pos == 0 {
		return nil, 0, false, nil
	}
	if buf[0] != respArray {
		// Inline command: a plain line of space-separated words.
		return splitWords(dst[:0], line), pos, true, nil
	}
	count, valid := atoi(line[1:])
	if !valid || count < 0 || count > 1024*1024 {
		return nil, pos, true, fmt.Errorf("kv: bad array header %q", line)
	}
	cmd := dst[:0]
	if cap(cmd) < count {
		// Sized by the header, but never past what buf could hold: a
		// hostile count costs no more memory than the bytes sent with it.
		cmd = make(Command, 0, min(count, (len(buf)-pos)/minBulk))
	}
	for i := 0; i < count; i++ {
		hdr, hn := readLine(buf[pos:])
		if hn == 0 {
			return nil, 0, false, nil
		}
		if len(hdr) < 1 || hdr[0] != respBulk {
			return nil, pos + hn, true, fmt.Errorf("kv: expected bulk string, got %q", hdr)
		}
		blen, valid := atoi(hdr[1:])
		if !valid || blen < 0 {
			return nil, pos + hn, true, fmt.Errorf("kv: bad bulk length %q", hdr)
		}
		pos += hn
		if blen > len(buf)-pos-2 {
			return nil, 0, false, nil
		}
		cmd = append(cmd, buf[pos:pos+blen:pos+blen])
		pos += blen + 2
	}
	return cmd, pos, true, nil
}

// atoi reads a RESP length field, accepting exactly what strconv.Atoi
// accepts of its string (an optional sign, then at least one decimal digit,
// within int's range) without making one.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit uint64 = 1 << (strconv.IntSize - 1) // the magnitude of the most negative int
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if u == limit && !neg {
		return 0, false
	}
	n := int(u)
	if neg {
		n = -n
	}
	return n, true
}

// readLine returns the bytes before CRLF and the total consumed including
// the CRLF, or (nil, 0) if no full line is buffered.
func readLine(buf []byte) ([]byte, int) {
	for i := 0; i+1 < len(buf); i++ {
		if buf[i] == '\r' && buf[i+1] == '\n' {
			return buf[:i], i + 2
		}
	}
	return nil, 0
}

// splitWords appends line's words (split on single spaces) to out.
func splitWords(out [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if start >= 0 {
				out = append(out, line[start:i:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// headerLen is the length of a RESP length line: the type byte, n in
// decimal, CRLF.
func headerLen(n int) int {
	digits := 1
	for ; n >= 10; n /= 10 {
		digits++
	}
	return 1 + digits + 2
}

// appendHeader appends a RESP length line.
func appendHeader(out []byte, kind byte, n int) []byte {
	out = append(out, kind)
	out = strconv.AppendInt(out, int64(n), 10)
	return append(out, '\r', '\n')
}

// appendBulk appends b as a bulk string.
func appendBulk(out, b []byte) []byte {
	out = appendHeader(out, respBulk, len(b))
	out = append(out, b...)
	return append(out, '\r', '\n')
}

// appendBulkOrNull appends b as a bulk string, nil as the null bulk string.
func appendBulkOrNull(out, b []byte) []byte {
	if b == nil {
		return append(out, "$-1\r\n"...)
	}
	return appendBulk(out, b)
}

// appendLine appends a simple string or an error: kind, the parts, CRLF.
func appendLine(out []byte, kind byte, parts ...string) []byte {
	out = append(out, kind)
	for _, p := range parts {
		out = append(out, p...)
	}
	return append(out, '\r', '\n')
}

// appendInteger appends :n.
func appendInteger(out []byte, n int64) []byte {
	out = strconv.AppendInt(append(out, respInteger), n, 10)
	return append(out, '\r', '\n')
}

// bulkLen is the encoded length of a bulk string of n bytes.
func bulkLen(n int) int { return headerLen(n) + n + 2 }

// EncodeCommand serializes a command as a RESP array of bulk strings, into
// one buffer sized for it.
func EncodeCommand(args ...[]byte) []byte {
	size := headerLen(len(args))
	for _, a := range args {
		size += bulkLen(len(a))
	}
	return appendCommand(make([]byte, 0, size), args...)
}

// appendCommand appends a command as a RESP array of bulk strings: every
// request and every AOF record is built here.
func appendCommand(out []byte, args ...[]byte) []byte {
	out = appendHeader(out, respArray, len(args))
	for _, a := range args {
		out = appendBulk(out, a)
	}
	return out
}

// Reply constructors.

// SimpleString encodes +s.
func SimpleString(s string) []byte { return appendLine(nil, respSimple, s) }

// ErrorReply encodes -msg.
func ErrorReply(msg string) []byte { return appendLine(nil, respError, msg) }

// Integer encodes :n.
func Integer(n int64) []byte { return appendInteger(nil, n) }

// BulkString encodes $len payload; nil encodes the null bulk string.
func BulkString(b []byte) []byte {
	if b == nil {
		return appendBulkOrNull(nil, nil)
	}
	return appendBulk(make([]byte, 0, bulkLen(len(b))), b)
}

// ParseReply parses one reply from buf, returning the payload (semantics
// depend on kind), bytes consumed, and completeness.
type Reply struct {
	Kind byte
	Str  string // simple/error
	Int  int64
	Bulk []byte // nil for null bulk
}

// ParseReply incrementally parses one server reply. A bulk payload is a
// copy; nothing in the Reply aliases buf.
func ParseReply(buf []byte) (Reply, int, bool, error) {
	line, n := readLine(buf)
	if n == 0 {
		return Reply{}, 0, false, nil
	}
	switch buf[0] {
	case respSimple:
		return Reply{Kind: respSimple, Str: simpleString(line[1:])}, n, true, nil
	case respError:
		return Reply{Kind: respError, Str: string(line[1:])}, n, true, nil
	case respInteger:
		v, err := strconv.ParseInt(string(line[1:]), 10, 64)
		return Reply{Kind: respInteger, Int: v}, n, true, err
	case respBulk:
		blen, valid := atoi(line[1:])
		if !valid {
			return Reply{}, n, true, fmt.Errorf("kv: bad bulk length %q", line)
		}
		if blen < 0 {
			return Reply{Kind: respBulk, Bulk: nil}, n, true, nil
		}
		if blen > len(buf)-n-2 {
			return Reply{}, 0, false, nil
		}
		// Not append onto nil: an empty payload would come back as the null
		// bulk string, a missing key.
		return Reply{Kind: respBulk, Bulk: append(make([]byte, 0, blen), buf[n:n+blen]...)}, n + blen + 2, true, nil
	default:
		return Reply{}, n, true, fmt.Errorf("kv: unknown reply type %q", buf[0])
	}
}

// simpleString returns s as a string; "OK", the reply to every write, is
// the constant, so the client's SET path allocates nothing for it.
func simpleString(s []byte) string {
	if string(s) == "OK" {
		return "OK"
	}
	return string(s)
}
