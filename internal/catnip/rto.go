package catnip

import "time"

// rtoEstimator computes the retransmission timeout per RFC 6298, with
// datacenter-tuned clamps from the stack configuration.
type rtoEstimator struct {
	srtt, rttvar   time.Duration
	rtoVal         time.Duration
	min, max, init time.Duration
	haveSample     bool
	backoffs       int
}

func newRTOEstimator(init, min, max time.Duration) rtoEstimator {
	return rtoEstimator{rtoVal: init, min: min, max: max, init: init}
}

// sample folds one RTT measurement into the estimator.
func (r *rtoEstimator) sample(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	if !r.haveSample {
		r.haveSample = true
		r.srtt = rtt
		r.rttvar = rtt / 2
	} else {
		d := r.srtt - rtt
		if d < 0 {
			d = -d
		}
		r.rttvar = (3*r.rttvar + d) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	r.rtoVal = r.srtt + 4*r.rttvar
	r.clamp()
	r.backoffs = 0
}

// value returns the current RTO.
func (r *rtoEstimator) value() time.Duration { return r.rtoVal }

// backoff doubles the RTO after a timeout (Karn's algorithm).
func (r *rtoEstimator) backoff() {
	r.rtoVal *= 2
	r.clamp()
	r.backoffs++
}

// exhausted reports whether retransmission should give up.
func (r *rtoEstimator) exhausted() bool { return r.backoffs > 8 }

func (r *rtoEstimator) clamp() {
	if r.rtoVal < r.min {
		r.rtoVal = r.min
	}
	if r.rtoVal > r.max {
		r.rtoVal = r.max
	}
}
