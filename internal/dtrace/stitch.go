package dtrace

import (
	"fmt"
	"io"
	"sort"

	"demikernel/internal/telemetry"
)

// Row classes, in critical-path priority order: when intervals overlap,
// the most specific explanation of where the time went wins — a frame in
// flight or a buffer in a ring beats "inside the OS", which beats an app
// stage, which beats the wait/sched redeem tail.
const (
	RowWire = iota
	RowRing
	RowOpInOS
	RowApp
	RowRedeem
	rowClasses
)

var rowClassNames = [rowClasses]string{"wire", "ring", "in-os", "app", "redeem"}

// RowClassName returns the mnemonic for a row class.
func RowClassName(c int) string {
	if c >= 0 && c < rowClasses {
		return rowClassNames[c]
	}
	return "class?"
}

// A Row is one stitched waterfall interval of a request.
type Row struct {
	Hop   uint8 // recording hop
	ToHop uint8 // destination hop for wire/ring transits (else == Hop)
	Class int
	Label string
	From  int64
	To    int64
}

// Dur returns the row's length in nanoseconds.
func (r Row) Dur() int64 { return r.To - r.From }

// A Mark is one fault firing attached to a trace.
type Mark struct {
	Hop  uint8
	Site uint8
	At   int64
}

// A CritEntry attributes critical-path nanoseconds to one (hop, class,
// label) bucket.
type CritEntry struct {
	Hop   uint8
	Class int
	Label string
	Ns    int64
}

// A View is one request's stitched end-to-end trace.
type View struct {
	Trace    uint64
	Root     Root
	RootHop  uint8
	Rows     []Row // sorted by From, then class
	Faults   []Mark
	Coverage float64 // fraction of the root interval covered by rows
	Crit     []CritEntry
	GapNs    int64 // critical-path ns no recorded interval explains
}

// Assemble stitches every complete trace in the arena into a View, keyed
// by trace ID. Traces whose root event was evicted from the arena are
// skipped — query them via Recent/Slowest plus a bigger arena. Allocation
// is unrestricted here: assembly runs at export time, off the datapath.
func (t *Tracer) Assemble() map[uint64]*View {
	views := make(map[uint64]*View)
	if t == nil {
		return views
	}
	byTrace := make(map[uint64][]Event)
	var global []Event // un-attributed faults (Trace == 0)
	for _, e := range t.Events() {
		if e.Trace == 0 {
			if e.Kind == KFault {
				global = append(global, e)
			}
			continue
		}
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
	}
	for id, evs := range byTrace {
		if v := t.buildView(id, evs); v != nil {
			views[id] = v
		}
	}
	// A fault with no request context hits whatever was in flight: attach
	// it to every trace whose root interval contains the instant.
	for _, f := range global {
		for _, v := range views {
			if f.T0 >= v.Root.Start && f.T0 <= v.Root.End {
				v.Faults = append(v.Faults, Mark{Hop: f.Hop, Site: f.Label, At: f.T0})
			}
		}
	}
	for _, v := range views {
		sort.Slice(v.Faults, func(i, j int) bool { return v.Faults[i].At < v.Faults[j].At })
	}
	return views
}

// buildView stitches one trace's events; nil when the root is missing.
func (t *Tracer) buildView(id uint64, evs []Event) *View {
	v := &View{Trace: id}
	haveRoot := false
	var wireTx, wireRx, ringPush, ringPop []Event
	for _, e := range evs {
		switch e.Kind {
		case KRoot:
			v.Root = Root{Trace: id, Start: e.T0, End: e.T1}
			v.RootHop = e.Hop
			haveRoot = true
		case KOp:
			v.Rows = append(v.Rows,
				Row{Hop: e.Hop, ToHop: e.Hop, Class: RowOpInOS, Label: telemetry.OpName(e.Label), From: e.T0, To: e.T1},
				Row{Hop: e.Hop, ToHop: e.Hop, Class: RowRedeem, Label: telemetry.OpName(e.Label), From: e.T1, To: e.T2})
		case KWireTx:
			wireTx = append(wireTx, e)
		case KWireRx:
			wireRx = append(wireRx, e)
		case KRingPush:
			ringPush = append(ringPush, e)
		case KRingPop:
			ringPop = append(ringPop, e)
		case KApp:
			v.Rows = append(v.Rows,
				Row{Hop: e.Hop, ToHop: e.Hop, Class: RowApp, Label: t.Name(e.Label), From: e.T0, To: e.T1})
		case KSwitch:
			// A switch traversal is an instant, not an interval: the frame's
			// in-flight time already belongs to the surrounding wire row, so
			// a zero-length row marks the hop (and the placement decision in
			// QD) without ever claiming critical path.
			v.Rows = append(v.Rows,
				Row{Hop: e.Hop, ToHop: e.Hop, Class: RowWire, Label: switchLabel(e.QD), From: e.T0, To: e.T0})
		case KFault:
			v.Faults = append(v.Faults, Mark{Hop: e.Hop, Site: e.Label, At: e.T0})
		}
	}
	if !haveRoot {
		return nil
	}
	v.Rows = append(v.Rows, pairTransits(wireTx, wireRx, RowWire, "wire")...)
	v.Rows = append(v.Rows, pairTransits(ringPush, ringPop, RowRing, "ring")...)
	sort.Slice(v.Rows, func(i, j int) bool {
		a, b := v.Rows[i], v.Rows[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.To < b.To
	})
	v.finish()
	return v
}

// switchLabel renders a KSwitch row's label with its placement decision.
func switchLabel(server int32) string {
	if server < 0 {
		return "switch"
	}
	return fmt.Sprintf("switch>s%d", server)
}

// pairTransits matches each departure with the earliest later (or
// simultaneous) unconsumed arrival, in time order — the closed-loop chain
// produces strictly alternating pairs, and leftovers (a retransmitted
// frame, an evicted arrival) are dropped rather than misattributed.
func pairTransits(dep, arr []Event, class int, label string) []Row {
	sort.Slice(dep, func(i, j int) bool { return dep[i].T0 < dep[j].T0 })
	sort.Slice(arr, func(i, j int) bool { return arr[i].T0 < arr[j].T0 })
	var rows []Row
	j := 0
	for _, d := range dep {
		for j < len(arr) && arr[j].T0 < d.T0 {
			j++
		}
		if j == len(arr) {
			break
		}
		rows = append(rows, Row{Hop: d.Hop, ToHop: arr[j].Hop, Class: class,
			Label: label, From: d.T0, To: arr[j].T0})
		j++
	}
	return rows
}

// finish computes coverage and the critical path from the sorted rows.
func (v *View) finish() {
	rootDur := v.Root.Dur()
	if rootDur <= 0 {
		return
	}
	// Elementary intervals: every row boundary clipped to the root.
	cuts := make([]int64, 0, 2*len(v.Rows)+2)
	cuts = append(cuts, v.Root.Start, v.Root.End)
	for _, r := range v.Rows {
		for _, c := range [2]int64{r.From, r.To} {
			if c > v.Root.Start && c < v.Root.End {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	type key struct {
		hop   uint8
		class int
		label string
	}
	crit := make(map[key]int64)
	var covered, gap int64
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		best := -1
		for ri, r := range v.Rows {
			if r.From <= lo && r.To >= hi && r.To > r.From {
				if best < 0 || r.Class < v.Rows[best].Class {
					best = ri
				}
			}
		}
		if best < 0 {
			gap += hi - lo
			continue
		}
		covered += hi - lo
		r := v.Rows[best]
		crit[key{r.Hop, r.Class, r.Label}] += hi - lo
	}
	v.Coverage = float64(covered) / float64(rootDur)
	v.GapNs = gap
	for k, ns := range crit {
		v.Crit = append(v.Crit, CritEntry{Hop: k.hop, Class: k.class, Label: k.label, Ns: ns})
	}
	sort.Slice(v.Crit, func(i, j int) bool {
		a, b := v.Crit[i], v.Crit[j]
		if a.Ns != b.Ns {
			return a.Ns > b.Ns
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		return a.Label < b.Label
	})
}

// CritSum returns the summed critical-path attribution plus the gap —
// always exactly the root duration, by construction.
func (v *View) CritSum() int64 {
	s := v.GapNs
	for _, c := range v.Crit {
		s += c.Ns
	}
	return s
}

// GuiltyHop returns the hop name and class carrying the largest share of
// the critical path — the "which hop ate my microseconds" answer.
func (v *View) GuiltyHop(t *Tracer) (hop, class string, ns int64) {
	if len(v.Crit) == 0 {
		return "?", "untraced", v.GapNs
	}
	c := v.Crit[0]
	return t.Name(c.Hop), RowClassName(c.Class), c.Ns
}

// WriteWaterfall renders the view as an aligned ASCII waterfall: one bar
// per row, offset and scaled inside the root interval, followed by the
// critical-path attribution and any fault marks.
func (v *View) WriteWaterfall(w io.Writer, t *Tracer) {
	const width = 48
	rootDur := v.Root.Dur()
	fmt.Fprintf(w, "trace %d  root=%s  %s  coverage %.1f%%\n",
		v.Trace, t.Name(v.RootHop), fmtNs(rootDur), 100*v.Coverage)
	if rootDur <= 0 {
		return
	}
	scale := func(ts int64) int {
		p := int((ts - v.Root.Start) * width / rootDur)
		if p < 0 {
			p = 0
		}
		if p > width {
			p = width
		}
		return p
	}
	var bar [width]byte
	for _, r := range v.Rows {
		for i := range bar {
			bar[i] = ' '
		}
		lo, hi := scale(r.From), scale(r.To)
		if hi == lo && hi < width {
			hi = lo + 1
		}
		for i := lo; i < hi; i++ {
			bar[i] = '='
		}
		name := t.Name(r.Hop)
		if r.ToHop != r.Hop {
			name = name + ">" + t.Name(r.ToHop)
		}
		fmt.Fprintf(w, "  %-16s %-7s %-14s |%s| %10s @%+dns\n",
			name, RowClassName(r.Class), r.Label, bar[:], fmtNs(r.Dur()), r.From-v.Root.Start)
	}
	fmt.Fprintf(w, "  critical path:")
	for _, c := range v.Crit {
		fmt.Fprintf(w, " %s/%s(%s)=%s", t.Name(c.Hop), RowClassName(c.Class), c.Label, fmtNs(c.Ns))
	}
	if v.GapNs > 0 {
		fmt.Fprintf(w, " untraced=%s", fmtNs(v.GapNs))
	}
	fmt.Fprintln(w)
	for _, f := range v.Faults {
		fmt.Fprintf(w, "  !! fault %s at %s (%+dns)\n", t.Name(f.Site), t.Name(f.Hop), f.At-v.Root.Start)
	}
}

// fmtNs renders nanoseconds tersely (ns below 10µs, else µs).
func fmtNs(ns int64) string {
	if ns < 10_000 && ns > -10_000 {
		return fmt.Sprintf("%dns", ns)
	}
	return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
}
