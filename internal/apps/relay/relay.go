// Package relay implements the paper's TURN-style UDP relay server (§7.2):
// the workhorse behind Teams/Skype NAT traversal. Clients allocate a
// session binding the session id to a forwarding destination; data packets
// carry the session id and are relayed to that destination. End-to-end
// latency is not the point — per-packet server CPU cost is, since it
// directly sets the service's fleet size (§7.4).
//
// Wire format (UDP payload):
//
//	byte 0:    opcode (1 = ALLOCATE, 2 = DATA, 3 = ALLOCATE-OK)
//	ALLOCATE:  bytes 1-4 session id, 5-8 target IPv4, 9-10 target port
//	DATA:      bytes 1-4 session id, 5.. payload
package relay

import (
	"encoding/binary"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/memory"
)

// Opcodes.
const (
	OpAllocate   = 1
	OpData       = 2
	OpAllocateOK = 3
)

// allocateLen is the ALLOCATE message size.
const allocateLen = 11

// dataHeaderLen prefixes every relayed payload.
const dataHeaderLen = 5

// Stats counts relay activity.
type Stats struct {
	Allocations      uint64
	Relayed          uint64
	DroppedNoSess    uint64
	DroppedMalformed uint64
}

// Server relays packets until the libOS stops. It binds addr and serves
// every session from one thread.
func Server(l demi.LibOS, addr core.Addr, stats *Stats) error {
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		return err
	}
	if err := l.Bind(qd, addr); err != nil {
		return err
	}
	sessions := make(map[uint32]core.Addr)
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
		msg := ev.SGA.Flatten()
		ev.SGA.Free()
		if len(msg) < 1 {
			stats.DroppedMalformed++
			continue
		}
		switch msg[0] {
		case OpAllocate:
			if len(msg) < allocateLen {
				stats.DroppedMalformed++
				continue
			}
			sid := binary.BigEndian.Uint32(msg[1:5])
			var target core.Addr
			copy(target.IP[:], msg[5:9])
			target.Port = binary.BigEndian.Uint16(msg[9:11])
			sessions[sid] = target
			stats.Allocations++
			ok := memory.CopyFrom(l.Heap(), []byte{OpAllocateOK})
			if qt, err := l.PushTo(qd, core.SGA(ok), ev.From); err == nil {
				l.Wait(qt)
			}
			ok.Free() // completed or refused, the push leaves the buffer with us
		case OpData:
			if len(msg) < dataHeaderLen {
				stats.DroppedMalformed++
				continue
			}
			sid := binary.BigEndian.Uint32(msg[1:5])
			target, ok := sessions[sid]
			if !ok {
				stats.DroppedNoSess++
				continue
			}
			// Forward with the header intact so the receiver can
			// demultiplex its own sessions.
			fwd := memory.CopyFrom(l.Heap(), msg)
			qt, err := l.PushTo(qd, core.SGA(fwd), target)
			if err != nil {
				fwd.Free() // failed push leaves ownership with us
				continue
			}
			_, err = l.Wait(qt)
			fwd.Free() // the push has completed: the buffer comes home
			if err != nil {
				return nil
			}
			stats.Relayed++
		default:
			stats.DroppedMalformed++
		}
	}
}

// BuildAllocate assembles an ALLOCATE message.
func BuildAllocate(sid uint32, target core.Addr) []byte {
	msg := make([]byte, allocateLen)
	msg[0] = OpAllocate
	binary.BigEndian.PutUint32(msg[1:5], sid)
	copy(msg[5:9], target.IP[:])
	binary.BigEndian.PutUint16(msg[9:11], target.Port)
	return msg
}

// BuildData assembles a DATA message around payload.
func BuildData(sid uint32, payload []byte) []byte {
	msg := make([]byte, dataHeaderLen+len(payload))
	msg[0] = OpData
	binary.BigEndian.PutUint32(msg[1:5], sid)
	copy(msg[dataHeaderLen:], payload)
	return msg
}

// ParseData splits a DATA message, reporting ok=false for anything else.
func ParseData(msg []byte) (sid uint32, payload []byte, ok bool) {
	if len(msg) < dataHeaderLen || msg[0] != OpData {
		return 0, nil, false
	}
	return binary.BigEndian.Uint32(msg[1:5]), msg[dataHeaderLen:], true
}
