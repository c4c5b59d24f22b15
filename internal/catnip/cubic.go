package catnip

import (
	"math"

	"demikernel/internal/sim"
)

// cubic implements Cubic congestion control (Ha, Rhee, Xu; RFC 8312), the
// algorithm the paper's Catnip uses (§6.3). State is kept in units of MSS
// for the cubic function and exposed in bytes.
type cubic struct {
	mss        int
	w          float64 // congestion window, segments
	ssthresh   float64 // slow-start threshold, segments
	wMax       float64 // window before the last reduction, segments
	epochStart sim.Time
	haveEpoch  bool
}

const (
	cubicC    = 0.4
	cubicBeta = 0.7
	// initialWindow is RFC 6928's IW10.
	initialWindow = 10
)

func (c *cubic) init(mss int) {
	c.mss = mss
	c.w = initialWindow
	c.ssthresh = math.Inf(1)
	c.haveEpoch = false
}

// window returns the congestion window in bytes.
func (c *cubic) window() int {
	w := int(c.w * float64(c.mss))
	if w < c.mss {
		w = c.mss
	}
	return w
}

// onAck grows the window: exponentially in slow start, along the cubic
// curve in congestion avoidance.
func (c *cubic) onAck(ackedBytes int, now sim.Time) {
	ackedSegs := float64(ackedBytes) / float64(c.mss)
	if c.w < c.ssthresh {
		c.w += ackedSegs
		return
	}
	if !c.haveEpoch {
		c.haveEpoch = true
		c.epochStart = now
		if c.wMax < c.w {
			c.wMax = c.w
		}
	}
	t := float64(now.Sub(c.epochStart)) / 1e9 // seconds
	k := math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
	target := cubicC*math.Pow(t-k, 3) + c.wMax
	if target > c.w {
		// Approach the cubic target over the next RTT's worth of acks.
		c.w += (target - c.w) / c.w * ackedSegs
	} else {
		// TCP-friendly floor: minimal reno-like growth.
		c.w += ackedSegs / (100 * c.w)
	}
}

// onLoss reacts to fast-retransmit loss detection: multiplicative decrease
// and a new cubic epoch.
func (c *cubic) onLoss() {
	c.wMax = c.w
	c.w *= cubicBeta
	if c.w < 2 {
		c.w = 2
	}
	c.ssthresh = c.w
	c.haveEpoch = false
}

// onTimeout collapses the window after an RTO (RFC 5681 §3.1).
func (c *cubic) onTimeout() {
	c.wMax = c.w
	c.ssthresh = c.w * cubicBeta
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.w = 1
	c.haveEpoch = false
}
