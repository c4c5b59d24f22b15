package demi_test

import (
	"fmt"
	"testing"
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/demi"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
)

// chargeKernel has three costs no sum of the others makes, so a charge in
// the wrong place cannot pass for the right one.
var chargeKernel = core.Kernel{Syscall: 1100 * time.Nanosecond, Wait: 700 * time.Nanosecond, Wake: 2900 * time.Nanosecond}

// charged is one step of the script and the CPU time it cost its node.
type charged struct {
	what string
	busy time.Duration
}

// chargeScript runs the kernel path's calls on a Catnip×Cattree node, behind
// k or bare, and returns what each cost. The script is the same either way,
// and every wait finds its work in the same state: an operation on the
// device is given time to finish first, with the node parked outside the
// front end.
func chargeScript(t *testing.T, k *core.Kernel, n int) []charged {
	t.Helper()
	eng := sim.NewEngine(58)
	node := eng.NewNode("kernel")
	port := dpdkdev.Attach(simnet.NewSwitch(eng, simnet.DefaultSwitch()), node, simnet.DefaultLink(), 8192, 0)
	net := catnip.New(node, port, catnip.DefaultConfig(ipA))
	stor := cattree.New(node, spdkdev.New(node, spdkdev.OptaneParams(), 1<<16))
	if k != nil {
		net.BehindKernel(*k)
		stor.BehindKernel(*k)
	}
	c := demi.NewCombined(net, stor)

	var steps []charged
	step := func(what string, call func() error) {
		before := node.Busy()
		if err := call(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		steps = append(steps, charged{what, node.Busy() - before})
	}
	settle := func() {
		for until := node.Now().Add(time.Millisecond); node.Now() < until; {
			node.Park(until)
		}
	}
	var qd, mq, log core.QDesc
	var push, pop, eof, mpop, mpush core.QToken
	popped := func(ev core.QEvent) error {
		if ev.Err != nil || ev.SGA.TotalLen() != n {
			return fmt.Errorf("popped %d bytes, %v; want %d", ev.SGA.TotalLen(), ev.Err, n)
		}
		ev.SGA.Free()
		return nil
	}
	token := func(dst *core.QToken) func(core.QToken, error) error {
		return func(qt core.QToken, err error) error { *dst = qt; return err }
	}
	data := func() core.SGArray { return core.SGA(memory.CopyFrom(c.Heap(), make([]byte, n))) }

	eng.Spawn(node, func() {
		step("queue", func() (err error) { mq, err = c.Queue(); return })
		step("socket", func() (err error) { qd, err = c.Socket(core.SockStream); return })
		step("bind", func() error { return c.Bind(qd, core.Addr{IP: ipA, Port: 80}) })
		step("listen", func() error { return c.Listen(qd, 4) })
		step("close", func() error { return c.Close(qd) })
		step("open", func() (err error) { log, err = c.Open("charges"); return })
		step("push(log)", func() error { return token(&push)(c.Push(log, data())) })
		settle()
		step("wait(push)", func() error { _, err := c.Wait(push); return err })
		step("seek(log)", func() error { return c.Seek(log, 0) })
		step("pop(log)", func() error { return token(&pop)(c.Pop(log)) })
		settle()
		step("wait_any(pop)", func() error {
			_, ev, err := c.WaitAny([]core.QToken{pop}, -1)
			if err != nil {
				return err
			}
			return popped(ev)
		})
		step("pop(log) at its end", func() error { return token(&eof)(c.Pop(log)) })
		step("wait_all(pop at the end)", func() error { _, err := c.WaitAll([]core.QToken{eof}, -1); return err })
		step("pop(queue)", func() error { return token(&mpop)(c.Pop(mq)) })
		step("push(queue)", func() error { return token(&mpush)(c.Push(mq, data())) })
		step("try_take(pop)", func() error {
			ev, done, err := c.TryTake(mpop)
			if err != nil || !done {
				return fmt.Errorf("done %v, %v", done, err)
			}
			return popped(ev)
		})
		step("try_take(push)", func() error { _, _, err := c.TryTake(mpush); return err })
		step("wait_any(nothing) that sleeps", func() error {
			if _, _, err := c.WaitAny(nil, 100*time.Microsecond); err != core.ErrTimeout {
				return fmt.Errorf("%v, want ErrTimeout", err)
			}
			return nil
		})
		step("close(log)", func() error { return c.Close(log) })
		step("close(queue)", func() error { return c.Close(mq) })
		eng.Stop()
	})
	eng.Run()
	return steps
}

// Behind a kernel, each call of a front end costs exactly what the kernel
// adds to it, and nothing else moves: Syscall on every call but Queue, the
// block layer and a copy in on a log write, a copy out on every pop
// redeemed, Wait on entering a wait and Wake+Wait after it slept.
func TestKernelCharges(t *testing.T) {
	// One device block with the record header, so the pop reads it in one go
	// and its wait does not sleep.
	const n = 256
	k := chargeKernel
	sys, copied := k.Syscall, costmodel.Memcpy(n)
	want := map[string]time.Duration{
		"queue":                         0,
		"socket":                        sys,
		"bind":                          sys,
		"listen":                        sys,
		"close":                         sys,
		"open":                          sys,
		"push(log)":                     sys + costmodel.KernelBlockIO + copied,
		"wait(push)":                    k.Wait,
		"seek(log)":                     sys,
		"pop(log)":                      sys,
		"wait_any(pop)":                 k.Wait + copied,
		"pop(log) at its end":           sys,
		"wait_all(pop at the end)":      k.Wait,
		"pop(queue)":                    sys,
		"push(queue)":                   sys,
		"try_take(pop)":                 copied,
		"try_take(push)":                0,
		"wait_any(nothing) that sleeps": k.Wait + k.Wake + k.Wait,
		"close(log)":                    sys,
		"close(queue)":                  sys,
	}
	bare, behind := chargeScript(t, nil, n), chargeScript(t, &k, n)
	if len(bare) != len(want) || len(behind) != len(want) {
		t.Fatalf("the script ran %d steps bare and %d behind the kernel, want %d", len(bare), len(behind), len(want))
	}
	for i, s := range behind {
		if got := s.busy - bare[i].busy; got != want[s.what] {
			t.Errorf("%s: the kernel added %v, want %v (bare %v, behind %v)", s.what, got, want[s.what], bare[i].busy, s.busy)
		}
	}
}
