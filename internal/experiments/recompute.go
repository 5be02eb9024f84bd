package experiments

import (
	"grape/internal/engine"
	"grape/internal/queries"
	"grape/internal/seq"
)

// RecomputeSSSP is the ablation opponent of the bounded-IncEval experiment:
// a PIE program identical to queries.SSSP except that IncEval re-runs full
// Dijkstra over the fragment from every finite-distance node instead of
// relaxing only from the changed border nodes. Its per-superstep cost is a
// function of |F_i| regardless of how small the change was — exactly what
// Example 1(d) says bounded incremental evaluation avoids.
type RecomputeSSSP struct {
	queries.SSSP
}

// Name implements engine.Program.
func (RecomputeSSSP) Name() string { return "sssp-recompute" }

// IncEval implements engine.Program by full recomputation. The scan and the
// restart both stay deliberately fragment-wide — that is the ablation — but
// they address vertices the same way the real program does (dense indices
// over the CSR form), so the comparison isolates algorithmic boundedness
// rather than accessor cost.
func (RecomputeSSSP) IncEval(q queries.SSSPQuery, ctx *engine.Context[float64]) error {
	// Seed from every node with a finite distance (the fragment-wide
	// restart), paying at least one unit per vertex — the |F_i| scan a
	// non-incremental algorithm cannot avoid.
	g := ctx.Frag.G
	var seeds []int32
	for i := int32(0); i < int32(g.NumVertices()); i++ {
		ctx.AddWork(1)
		if ctx.GetAt(i) < seq.Inf {
			seeds = append(seeds, i)
		}
	}
	ctx.AddWork(seq.RelaxIdx(g, false, seeds, ctx.GetAt, ctx.SetAt))
	return nil
}

func cfgWithEpochs(n int) seq.CFConfig {
	cfg := seq.DefaultCFConfig()
	cfg.Epochs = n
	return cfg
}
