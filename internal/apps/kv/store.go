package kv

import (
	"sort"
	"strconv"
)

// Store is the in-memory keyspace. Keys and values are immutable once
// stored (Redis strings are not updated in place), which is exactly the
// property that lets Demikernel's use-after-free protection give Redis
// zero-copy I/O with no code changes (paper §4.1, §7.2).
//
// A key's value lives in vals at the index the map holds for it, so
// replacing the value of a key the store has is a lookup, which converts
// nothing to a string: only a new key becomes one, the string the map keeps.
type Store struct {
	keys map[string]int // key -> index of its value in vals
	vals [][]byte       // nil at the indexes in free
	free []int          // indexes of deleted keys, reused first
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{keys: make(map[string]int)} }

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.keys) }

// get returns key's value, which is never nil for a key the store has.
func (s *Store) get(key []byte) ([]byte, bool) {
	i, ok := s.keys[string(key)]
	if !ok {
		return nil, false
	}
	return s.vals[i], true
}

// put makes v key's value.
func (s *Store) put(key, v []byte) {
	if i, ok := s.keys[string(key)]; ok {
		s.vals[i] = v
		return
	}
	i := len(s.vals)
	if k := len(s.free) - 1; k >= 0 {
		i, s.free = s.free[k], s.free[:k]
		s.vals[i] = v
	} else {
		s.vals = append(s.vals, v)
	}
	s.keys[string(key)] = i
}

// del removes key, reporting whether the store had it.
func (s *Store) del(key []byte) bool {
	i, ok := s.keys[string(key)]
	if ok {
		delete(s.keys, string(key))
		s.vals[i] = nil
		s.free = append(s.free, i)
	}
	return ok
}

// IsWrite reports whether the command mutates the store (and therefore
// must be logged to the AOF before replying).
func IsWrite(name string) bool {
	switch name {
	case "SET", "DEL", "INCR", "DECR", "APPEND", "FLUSHALL", "SETNX":
		return true
	}
	return false
}

// Snapshot returns one SET command per key in sorted key order (so AOF
// rewrites are deterministic), the store's canonical compact form.
func (s *Store) Snapshot() []Command {
	keys := make([]string, 0, len(s.keys))
	for k := range s.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Command, 0, len(keys))
	for _, k := range keys {
		out = append(out, Command{[]byte("SET"), []byte(k), s.vals[s.keys[k]]})
	}
	return out
}

// Execute runs one command and returns the RESP-encoded reply.
func (s *Store) Execute(cmd Command) []byte { return s.AppendReply(nil, cmd) }

// AppendReply runs one command and appends its RESP-encoded reply to dst.
// The command's arguments may alias a receive buffer: what the store keeps
// of them, it copies.
func (s *Store) AppendReply(dst []byte, cmd Command) []byte {
	switch name := cmd.Name(); name {
	case "PING":
		if len(cmd) > 1 {
			return appendBulkOrNull(dst, cmd[1])
		}
		return appendLine(dst, respSimple, "PONG")
	case "ECHO":
		if len(cmd) != 2 {
			return appendWrongArity(dst, name)
		}
		return appendBulkOrNull(dst, cmd[1])
	case "SET":
		if len(cmd) < 3 {
			return appendWrongArity(dst, name)
		}
		s.put(cmd[1], cloneValue(cmd[2]))
		return appendLine(dst, respSimple, "OK")
	case "SETNX":
		if len(cmd) != 3 {
			return appendWrongArity(dst, name)
		}
		if _, exists := s.get(cmd[1]); exists {
			return appendInteger(dst, 0)
		}
		s.put(cmd[1], cloneValue(cmd[2]))
		return appendInteger(dst, 1)
	case "GET":
		if len(cmd) != 2 {
			return appendWrongArity(dst, name)
		}
		v, _ := s.get(cmd[1])
		return appendBulkOrNull(dst, v)
	case "DEL":
		if len(cmd) < 2 {
			return appendWrongArity(dst, name)
		}
		n := int64(0)
		for _, k := range cmd[1:] {
			if s.del(k) {
				n++
			}
		}
		return appendInteger(dst, n)
	case "EXISTS":
		if len(cmd) < 2 {
			return appendWrongArity(dst, name)
		}
		n := int64(0)
		for _, k := range cmd[1:] {
			if _, ok := s.get(k); ok {
				n++
			}
		}
		return appendInteger(dst, n)
	case "INCR", "DECR":
		if len(cmd) != 2 {
			return appendWrongArity(dst, name)
		}
		delta := int64(1)
		if name == "DECR" {
			delta = -1
		}
		cur := int64(0)
		if v, ok := s.get(cmd[1]); ok {
			parsed, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return appendLine(dst, respError, "ERR value is not an integer or out of range")
			}
			cur = parsed
		}
		cur += delta
		s.put(cmd[1], strconv.AppendInt(nil, cur, 10))
		return appendInteger(dst, cur)
	case "APPEND":
		if len(cmd) != 3 {
			return appendWrongArity(dst, name)
		}
		// Append builds a new value; the old one stays untouched for any
		// in-flight zero-copy send (no update in place).
		old, _ := s.get(cmd[1])
		next := make([]byte, 0, len(old)+len(cmd[2]))
		next = append(append(next, old...), cmd[2]...)
		s.put(cmd[1], next)
		return appendInteger(dst, int64(len(next)))
	case "STRLEN":
		if len(cmd) != 2 {
			return appendWrongArity(dst, name)
		}
		v, _ := s.get(cmd[1])
		return appendInteger(dst, int64(len(v)))
	case "DBSIZE":
		return appendInteger(dst, int64(len(s.keys)))
	case "FLUSHALL":
		*s = *NewStore()
		return appendLine(dst, respSimple, "OK")
	case "":
		return appendLine(dst, respError, "ERR empty command")
	default:
		return appendLine(dst, respError, "ERR unknown command '", name, "'")
	}
}

// cloneValue copies a value, keeping empty values non-nil so GET can
// distinguish an empty string from a missing key.
func cloneValue(v []byte) []byte {
	return append(make([]byte, 0, len(v)), v...)
}

func appendWrongArity(dst []byte, name string) []byte {
	return appendLine(dst, respError, "ERR wrong number of arguments for '", name, "' command")
}
