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

// SGDEpochIdx runs one SGD pass over the rating edges out of the given users
// of graph g, updating the factors in place, and returns (work
// units, squared-error sum, rating count): each rating r(u, i) = w moves the
// user and item vectors along the gradient of the regularised squared
// prediction error, taken before the update. Factors live in a flat slice
// indexed by dense vertex index (nil = unset, the edge is skipped) and each
// rating edge lands on its packed dense target; users are visited in the
// order given.
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
			err := e.W - Dot(pu, qi)
			for k := range pu {
				du := cfg.LR * (err*qi[k] - cfg.Reg*pu[k])
				di := cfg.LR * (err*pu[k] - cfg.Reg*qi[k])
				pu[k] += du
				qi[k] += di
			}
			sqErr += err * err
			count++
			work += int64(len(pu))
		}
	}
	return work, sqErr, count
}

// TrainCF trains factors on the full graph sequentially (the ground-truth /
// single-worker baseline) and returns the factors of every vertex and the
// RMSE of the last epoch. Initial vectors are small deterministic random
// draws, one vector per vertex in ascending ID order; users absent from g
// rate nothing.
func TrainCF(g *graph.Graph, users []graph.ID, cfg CFConfig) (Factors, float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := make([][]float64, g.NumVertices())
	for _, i := range g.SortedIndices() {
		vec := make([]float64, cfg.Factors)
		for k := range vec {
			vec[k] = rng.Float64() * 0.1
		}
		f[i] = vec
	}
	ui := make([]int32, 0, len(users))
	for _, u := range users {
		if i, ok := g.Index(u); ok {
			ui = append(ui, i)
		}
	}
	var rmse float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		if _, sq, n := SGDEpochIdx(g, ui, f, cfg); n > 0 {
			rmse = math.Sqrt(sq / float64(n))
		}
	}
	out := make(Factors, len(f))
	for i, vec := range f {
		out[g.IDAt(int32(i))] = vec
	}
	return out, rmse
}

// Dot is the inner product of two factor vectors of equal length.
func Dot(a, b []float64) float64 {
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
