// Package ycsb generates YCSB-style key-value workloads for the Redis and
// TxnStore experiments (paper §7.5, §7.6): zipfian and uniform key
// choosers, GET/SET mixes, and workload F's read-modify-write
// transactions.
package ycsb

import (
	"fmt"
	"math"

	"demikernel/internal/sim"
)

// KeyChooser picks key indices in [0, n).
type KeyChooser interface {
	Next() int
}

// Uniform picks keys uniformly.
type Uniform struct {
	n   int
	rng *sim.Rand
}

// NewUniform returns a uniform chooser over n keys.
func NewUniform(n int, rng *sim.Rand) *Uniform { return &Uniform{n: n, rng: rng} }

// Next implements KeyChooser.
func (u *Uniform) Next() int { return u.rng.Intn(u.n) }

// Zipf picks keys with the standard YCSB zipfian distribution (theta
// defaults to 0.99), using Gray et al.'s rejection-free method.
type Zipf struct {
	n          int
	rng        *sim.Rand
	theta      float64
	zetan      float64
	alpha, eta float64
	zeta2theta float64
}

// NewZipf returns a zipfian chooser over n keys with the given theta
// (0 < theta < 1; YCSB's default is 0.99).
func NewZipf(n int, theta float64, rng *sim.Rand) *Zipf {
	z := &Zipf{n: n, rng: rng, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Key renders key index i in YCSB's fixed-width form.
func Key(i int) []byte { return []byte(fmt.Sprintf("user%020d", i)) }

// OpKind is a workload operation type.
type OpKind int

const (
	// OpRead is a GET.
	OpRead OpKind = iota
	// OpUpdate is a SET of an existing key.
	OpUpdate
	// OpRMW is workload F's read-modify-write transaction.
	OpRMW
)

// Workload generates a stream of operations.
type Workload struct {
	Keys     KeyChooser
	ReadFrac float64 // probability of OpRead; remainder split per kind
	RMW      bool    // workload F: non-reads are RMW transactions
	rng      *sim.Rand
}

// WorkloadF returns YCSB workload F: 50% reads, 50% read-modify-writes
// (the paper's TxnStore configuration uses its transactional form).
func WorkloadF(keys KeyChooser, rng *sim.Rand) *Workload {
	return &Workload{Keys: keys, ReadFrac: 0.5, RMW: true, rng: rng}
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  int
}

// Next returns the next operation.
func (w *Workload) Next() Op {
	k := w.Keys.Next()
	if w.rng.Float64() < w.ReadFrac {
		return Op{Kind: OpRead, Key: k}
	}
	if w.RMW {
		return Op{Kind: OpRMW, Key: k}
	}
	return Op{Kind: OpUpdate, Key: k}
}
