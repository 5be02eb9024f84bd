package seq

import (
	"math"
	"math/rand"

	"grape/internal/graph"
)

// CFConfig parameterizes matrix-factorization collaborative filtering via
// stochastic gradient descent, the demo's CF query class (a machine-learning
// workload showing GRAPE is not limited to traversal queries).
type CFConfig struct {
	Factors int     // latent dimension k
	Epochs  int     // SGD passes over the ratings
	LR      float64 // learning rate
	Reg     float64 // L2 regularization
	Seed    int64
}

// DefaultCFConfig mirrors the constants used across the reproduction.
func DefaultCFConfig() CFConfig {
	return CFConfig{Factors: 8, Epochs: 20, LR: 0.02, Reg: 0.05, Seed: 1}
}

// Factors holds the learned latent vectors per vertex (users and items).
type Factors map[graph.ID][]float64

// InitFactors returns small deterministic random vectors for every vertex of
// the bipartite ratings graph.
func InitFactors(g *graph.Graph, cfg CFConfig) Factors {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := make(Factors, g.NumVertices())
	for _, v := range g.SortedVertices() {
		vec := make([]float64, cfg.Factors)
		for i := range vec {
			vec[i] = rng.Float64() * 0.1
		}
		f[v] = vec
	}
	return f
}

// SGDStep applies one stochastic-gradient update for a single rating
// r(u, i) = w to the user and item factor vectors in place and returns the
// prediction error before the update. It is the one copy of the update rule
// shared by the sparse and dense SGD loops — change it here and both stay
// bit-identical.
func SGDStep(pu, qi []float64, w float64, cfg CFConfig) float64 {
	err := w - dot(pu, qi)
	for k := range pu {
		du := cfg.LR * (err*qi[k] - cfg.Reg*pu[k])
		di := cfg.LR * (err*pu[k] - cfg.Reg*qi[k])
		pu[k] += du
		qi[k] += di
	}
	return err
}

// SGDEpoch runs one SGD pass over the rating edges incident to the given
// users, updating factors in place, and returns (work units, squared-error
// sum, rating count). Edges are visited in sorted-user order for
// determinism.
func SGDEpoch(g *graph.Graph, users []graph.ID, f Factors, cfg CFConfig) (int64, float64, int) {
	var work int64
	var sqErr float64
	count := 0
	for _, u := range users {
		pu := f[u]
		for _, e := range g.Out(u) {
			qi := f[e.To]
			if qi == nil || pu == nil {
				continue
			}
			err := SGDStep(pu, qi, e.W, cfg)
			sqErr += err * err
			count++
			work += int64(len(pu))
		}
	}
	return work, sqErr, count
}

// SGDEpochIdx is SGDEpoch over a frozen graph's CSR form: factors live in a
// flat slice indexed by dense vertex index and each rating edge lands on its
// packed dense target. Users must be given in the same order as the IDs
// passed to SGDEpoch would be — the gradient updates then happen in an
// identical sequence and both paths produce bit-identical factors.
func SGDEpochIdx(g *graph.Graph, users []int32, f [][]float64, cfg CFConfig) (int64, float64, int) {
	var work int64
	var sqErr float64
	count := 0
	for _, u := range users {
		pu := f[u]
		for _, e := range g.OutAt(u) {
			qi := f[e.To]
			if qi == nil || pu == nil {
				continue
			}
			err := SGDStep(pu, qi, e.W, cfg)
			sqErr += err * err
			count++
			work += int64(len(pu))
		}
	}
	return work, sqErr, count
}

// TrainCF trains factors on the full graph sequentially (the ground-truth /
// single-worker baseline) and returns the factors and final RMSE.
func TrainCF(g *graph.Graph, users []graph.ID, cfg CFConfig) (Factors, float64) {
	f := InitFactors(g, cfg)
	var rmse float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		_, sq, n := SGDEpoch(g, users, f, cfg)
		if n > 0 {
			rmse = math.Sqrt(sq / float64(n))
		}
	}
	return f, rmse
}

// RMSE evaluates factors against all rating edges out of the given users.
func RMSE(g *graph.Graph, users []graph.ID, f Factors) float64 {
	var sq float64
	n := 0
	for _, u := range users {
		pu := f[u]
		if pu == nil {
			continue
		}
		for _, e := range g.Out(u) {
			qi := f[e.To]
			if qi == nil {
				continue
			}
			d := e.W - dot(pu, qi)
			sq += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sq / float64(n))
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// UsersOf returns the vertices labeled "user" in sorted order.
func UsersOf(g *graph.Graph) []graph.ID {
	var us []graph.ID
	for _, v := range g.SortedVertices() {
		if g.Label(v) == "user" {
			us = append(us, v)
		}
	}
	return us
}
