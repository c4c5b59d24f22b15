package dtrace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"demikernel/internal/telemetry"
)

// Binary trace format: a fixed header, the name registry, the counters,
// then the event and root records, everything big-endian. Event and Root
// are fixed-size structs whose field order is the record layout (47 and 24
// bytes, no padding on the wire), so encoding/binary writes and reads the
// slices as they are. The encoding is a pure function of tracer state, and
// tracer state is a pure function of the seed — so same-seed runs export
// byte-identical traces (asserted by the CI trace smoke job).
var binMagic = [5]byte{'D', 'T', 'R', 'C', 1}

// EncodeBinary writes the tracer's retained state: names, counters, the
// event arena in recording order, and the retention tables.
func (t *Tracer) EncodeBinary(w io.Writer) error {
	put := func(v any) error { return binary.Write(w, binary.BigEndian, v) }
	if err := put(binMagic); err != nil {
		return err
	}
	if err := put(uint32(len(t.names))); err != nil {
		return err
	}
	for _, n := range t.names {
		if err := put(uint32(len(n))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, n); err != nil {
			return err
		}
	}
	if err := put([5]uint64{t.sampleEvery, t.started, t.Finished(), t.Evicted(), t.lastID}); err != nil {
		return err
	}
	if err := putRecords(w, t.Events()); err != nil {
		return err
	}
	if err := putRecords(w, t.Recent()); err != nil {
		return err
	}
	return putRecords(w, t.Slowest(0))
}

// putRecords writes a 32-bit count and then the records.
func putRecords[T Event | Root](w io.Writer, recs []T) error {
	if err := binary.Write(w, binary.BigEndian, uint32(len(recs))); err != nil {
		return err
	}
	return binary.Write(w, binary.BigEndian, recs)
}

// getRecords reads a 32-bit count and that many records. The count comes
// from the file, so the result grows a chunk at a time as records actually
// arrive: a corrupt or truncated file fails with what it held allocated,
// plus at most one chunk, whatever number it claimed.
func getRecords[T Event | Root](r io.Reader) ([]T, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	const chunk = 1024
	var recs []T
	for have := uint32(0); have < n; have = uint32(len(recs)) {
		recs = append(recs, make([]T, min(n-have, chunk))...)
		if err := binary.Read(r, binary.BigEndian, recs[have:]); err != nil {
			return nil, fmt.Errorf("dtrace: %d records promised, file ends after %d: %w", n, have, err)
		}
	}
	return recs, nil
}

// DecodeBinary reconstructs a tracer from EncodeBinary output, sufficient
// for querying: Assemble, Name, Recent, Slowest all work on the result.
func DecodeBinary(r io.Reader) (*Tracer, error) {
	get := func(v any) error { return binary.Read(r, binary.BigEndian, v) }
	var magic [5]byte
	if err := get(&magic); err != nil {
		return nil, fmt.Errorf("dtrace: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("dtrace: bad magic %q (version mismatch?)", magic[:])
	}
	var nNames uint32
	if err := get(&nNames); err != nil {
		return nil, err
	}
	if nNames > 256 {
		return nil, fmt.Errorf("dtrace: corrupt name count %d", nNames)
	}
	t := &Tracer{names: make([]string, 0, nNames)}
	for i := uint32(0); i < nNames; i++ {
		var ln uint32
		if err := get(&ln); err != nil {
			return nil, err
		}
		if ln > 4096 {
			return nil, fmt.Errorf("dtrace: corrupt name length %d", ln)
		}
		b := make([]byte, ln)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		t.names = append(t.names, string(b))
	}
	var ctrs [5]uint64
	if err := get(&ctrs); err != nil {
		return nil, err
	}
	t.sampleEvery, t.started, t.lastID = ctrs[0], ctrs[1], ctrs[4]
	// Decoded tracers are read-only: the rings are restored full, so
	// Events() and Recent() return every decoded record in order.
	events, err := getRecords[Event](r)
	if err != nil {
		return nil, err
	}
	t.events = telemetry.RestoreRing(events, ctrs[3]+uint64(len(events)))
	recent, err := getRecords[Root](r)
	if err != nil {
		return nil, err
	}
	t.recent = telemetry.RestoreRing(recent, ctrs[2])
	slow, err := getRecords[Root](r)
	if err != nil {
		return nil, err
	}
	t.slow = telemetry.NewTopK[Root](len(slow))
	for _, s := range slow {
		t.slow.Put(s, s.Dur())
	}
	return t, nil
}

// WriteChromeJSON exports every assembled view as Chrome trace_event JSON
// (load in chrome://tracing or Perfetto): one process per trace, one
// thread per hop, complete ("X") events for rows, instant ("i") events for
// faults. Timestamps are microseconds relative to each trace's root start.
// Output is deterministic: traces ascending, rows in stitched order.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	views := t.Assemble()
	ids := make([]uint64, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, id := range ids {
		v := views[id]
		if err := emit(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"trace %d (%s)"}}`,
			id, id, t.Name(v.RootHop)); err != nil {
			return err
		}
		named := make(map[uint8]bool)
		nameThread := func(hop uint8) error {
			if named[hop] {
				return nil
			}
			named[hop] = true
			return emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
				id, hop, t.Name(hop))
		}
		if err := nameThread(v.RootHop); err != nil {
			return err
		}
		if err := emit(`{"name":"request","cat":"root","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
			0.0, us(v.Root.Dur()), id, v.RootHop); err != nil {
			return err
		}
		for _, r := range v.Rows {
			if err := nameThread(r.Hop); err != nil {
				return err
			}
			label := r.Label
			if r.ToHop != r.Hop {
				label = label + " to " + t.Name(r.ToHop)
			}
			if err := emit(`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
				label, RowClassName(r.Class), us(r.From-v.Root.Start), us(r.Dur()), id, r.Hop); err != nil {
				return err
			}
		}
		for _, f := range v.Faults {
			if err := nameThread(f.Hop); err != nil {
				return err
			}
			if err := emit(`{"name":%q,"cat":"fault","ph":"i","s":"p","ts":%.3f,"pid":%d,"tid":%d}`,
				t.Name(f.Site), us(f.At-v.Root.Start), id, f.Hop); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
