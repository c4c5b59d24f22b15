package rack

import (
	"fmt"

	"demikernel/internal/core"
	"demikernel/internal/multicore"
	"demikernel/internal/reqsched"
	"demikernel/internal/sim"
)

// A Server is one rack host: a multi-core Demikernel node (per-core Catnip
// stacks over RSS queues) fronting a host-wide request dispatcher — the
// intra-server half of the two-layer scheduler. Network processing stays
// shared-nothing per core; application work funnels through the
// dispatcher's worker pool under the host policy (c-FCFS or DARC), and the
// dispatcher's instantaneous load rides every reply frame back to the ToR
// via the stacks' load probes.
type Server struct {
	ID   int
	Grp  *multicore.Group
	Disp *reqsched.Dispatcher

	eng *sim.Engine
	w   Workload
	cq  [][]completion // per-core completed requests awaiting replies
}

// completion is one finished request waiting for its owning core to send
// the reply.
type completion struct {
	id   uint64
	size int
	from core.Addr
	ctx  uint64
}

// newServer builds one rack host behind the switch the group is already
// attached to: workers equals cores (one application worker per vCPU).
func newServer(eng *sim.Engine, id int, grp *multicore.Group, policy reqsched.Policy, w Workload) *Server {
	s := &Server{
		ID:   id,
		Grp:  grp,
		Disp: reqsched.NewDispatcher(eng, grp.NumCores(), policy, 0),
		eng:  eng,
		w:    w,
		cq:   make([][]completion, grp.NumCores()),
	}
	grp.AttachLoadProbe(func() (uint16, uint32) {
		return uint16(id), uint32(s.Disp.Load())
	})
	return s
}

// Start spawns the serve loop on every core.
func (s *Server) Start() {
	s.Grp.Spawn(func(c *multicore.Core) {
		if err := s.serve(c); err != nil {
			panic(fmt.Sprintf("rack server %d core %d: %v", s.ID, c.ID, err))
		}
	})
}

// serve is one core's loop. It multiplexes two sources of work — request
// arrivals from its RSS queue and completions from the host dispatcher —
// without ever blocking on just one: TryTake polls the outstanding pop,
// the completion queue is drained first (replies free dispatcher state the
// ToR is tracking), and the core parks only when neither has work.
func (s *Server) serve(c *multicore.Core) error {
	l := c.OS
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		return err
	}
	if err := l.Bind(qd, l.Addr(RackPort)); err != nil {
		return err
	}
	pqt, err := l.Pop(qd)
	if err != nil {
		return err
	}
	for {
		if len(s.cq[c.ID]) > 0 {
			comp := s.cq[c.ID][0]
			s.cq[c.ID] = s.cq[c.ID][1:]
			if err := s.reply(c, qd, comp); err != nil {
				return err
			}
			continue
		}
		if ev, done, err := l.TryTake(pqt); err != nil {
			return err
		} else if done {
			if ev.Err == nil {
				s.handle(c, ev)
			}
			if pqt, err = l.Pop(qd); err != nil {
				return err
			}
			continue
		}
		if l.Step() {
			continue
		}
		if !l.Block(sim.Infinity) {
			return nil // simulation stopping
		}
	}
}

// handle admits one parsed request to the host dispatcher. The completion
// callback runs on the dispatcher's event context at finish time; it routes
// the completion back to the core that owns the flow and wakes it.
func (s *Server) handle(c *multicore.Core, ev core.QEvent) {
	defer ev.SGA.Free()
	id, size, ok := decodeReq(ev.SGA.Flatten())
	if !ok {
		return
	}
	comp := completion{id: id, size: size, from: ev.From, ctx: ev.SGA.TraceCtx()}
	coreID, node := c.ID, c.Node
	admitted := s.Disp.Submit(node.Now(), s.w.ClassFor(size), ServiceFor(size), func(_, end sim.Time) {
		s.eng.At(end, node, func() {
			s.cq[coreID] = append(s.cq[coreID], comp)
		})
	})
	if !admitted {
		// Bounded-queue overload: answer immediately with an empty value so
		// the closed-loop client never hangs on a dropped request.
		s.cq[coreID] = append(s.cq[coreID], completion{id: id, from: ev.From, ctx: comp.ctx})
	}
}

// reply sends one completed request's value back to its client.
func (s *Server) reply(c *multicore.Core, qd core.QDesc, comp completion) error {
	l := c.OS
	buf := l.Heap().Alloc(8 + comp.size)
	encodeRep(buf.Bytes(), comp.id)
	buf.SetTraceCtx(comp.ctx)
	wqt, err := l.PushTo(qd, core.SGA(buf), comp.from)
	if err != nil {
		buf.Free()
		return err
	}
	_, err = l.Wait(wqt)
	buf.Free()
	if err != nil {
		return nil // stopped mid-push
	}
	return nil
}
