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

// Command is one parsed client command: an array of bulk strings.
type Command [][]byte

// Name returns the upper-cased command name.
func (c Command) Name() string {
	if len(c) == 0 {
		return ""
	}
	return upper(string(c[0]))
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
// error was consumed.
func ParseCommand(buf []byte) (cmd Command, n int, ok bool, err error) {
	if len(buf) == 0 {
		return nil, 0, false, nil
	}
	if buf[0] != respArray {
		// Inline command: a plain line of space-separated words.
		line, consumed := readLine(buf)
		if consumed == 0 {
			return nil, 0, false, nil
		}
		var parts [][]byte
		for _, w := range splitWords(line) {
			parts = append(parts, w)
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
	cmd = make(Command, 0, count)
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
		if len(buf[pos:]) < blen+2 {
			return nil, 0, false, nil
		}
		cmd = append(cmd, append([]byte(nil), buf[pos:pos+blen]...))
		pos += blen + 2
	}
	return cmd, pos, true, nil
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

// splitWords splits on single spaces.
func splitWords(line []byte) [][]byte {
	var out [][]byte
	start := -1
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if start >= 0 {
				out = append(out, append([]byte(nil), line[start:i]...))
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

// bulkLen is the encoded length of a bulk string of n bytes.
func bulkLen(n int) int { return headerLen(n) + n + 2 }

// EncodeCommand serializes a command as a RESP array of bulk strings, into
// one buffer sized for it: every request and every AOF record is built here.
func EncodeCommand(args ...[]byte) []byte {
	size := headerLen(len(args))
	for _, a := range args {
		size += bulkLen(len(a))
	}
	out := appendHeader(make([]byte, 0, size), respArray, len(args))
	for _, a := range args {
		out = appendBulk(out, a)
	}
	return out
}

// Reply constructors.

// SimpleString encodes +s.
func SimpleString(s string) []byte { return []byte("+" + s + "\r\n") }

// ErrorReply encodes -msg.
func ErrorReply(msg string) []byte { return []byte("-" + msg + "\r\n") }

// Integer encodes :n.
func Integer(n int64) []byte { return []byte(":" + strconv.FormatInt(n, 10) + "\r\n") }

// BulkString encodes $len payload; nil encodes the null bulk string.
func BulkString(b []byte) []byte {
	if b == nil {
		return []byte("$-1\r\n")
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

// ParseReply incrementally parses one server reply.
func ParseReply(buf []byte) (Reply, int, bool, error) {
	if len(buf) == 0 {
		return Reply{}, 0, false, nil
	}
	line, n := readLine(buf)
	if n == 0 {
		return Reply{}, 0, false, nil
	}
	switch buf[0] {
	case respSimple:
		return Reply{Kind: respSimple, Str: string(line[1:])}, n, true, nil
	case respError:
		return Reply{Kind: respError, Str: string(line[1:])}, n, true, nil
	case respInteger:
		v, err := strconv.ParseInt(string(line[1:]), 10, 64)
		return Reply{Kind: respInteger, Int: v}, n, true, err
	case respBulk:
		blen, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return Reply{}, n, true, err
		}
		if blen < 0 {
			return Reply{Kind: respBulk, Bulk: nil}, n, true, nil
		}
		if len(buf[n:]) < blen+2 {
			return Reply{}, 0, false, nil
		}
		return Reply{Kind: respBulk, Bulk: append([]byte(nil), buf[n:n+blen]...)}, n + blen + 2, true, nil
	default:
		return Reply{}, n, true, fmt.Errorf("kv: unknown reply type %q", buf[0])
	}
}
