package sim

import "fmt"

// A Host is a simulated machine owning several virtual CPUs. Each core is
// an ordinary Node — independently charged, parked and woken — so the
// engine's baton discipline is unchanged: exactly one core (of any host)
// executes at a time, and cores of one host interleave round-robin as
// their clocks advance (see minRunnable's least-recently-run tie-break).
// Shared-nothing multi-core stacks (internal/multicore) run one libOS per
// core; the host is only the grouping for attachment and accounting.
type Host struct {
	cores []*Node
}

// NewHost creates a simulated machine with the given number of virtual
// CPUs, named "<name>/cpu<i>".
func (e *Engine) NewHost(name string, cores int) *Host {
	if cores < 1 {
		panic("sim: host needs at least one core")
	}
	h := &Host{}
	for i := 0; i < cores; i++ {
		h.cores = append(h.cores, e.NewNode(fmt.Sprintf("%s/cpu%d", name, i)))
	}
	return h
}

// Core returns the i-th virtual CPU.
func (h *Host) Core(i int) *Node { return h.cores[i] }

// Cores returns all virtual CPUs in core order.
func (h *Host) Cores() []*Node { return h.cores }
