package queries

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// CFQuery asks for a matrix factorization of the bipartite ratings graph.
type CFQuery struct {
	Cfg seq.CFConfig
}

// CFResult is the trained model and its fit.
type CFResult struct {
	// RMSE is the root-mean-square error over all ratings under the final
	// factors.
	RMSE float64
	// Factors holds the latent vector of every user and item (owner copy).
	Factors seq.Factors
}

// cfState is CF's per-worker state: the true factor matrices (the node
// variables only mirror the border subset) and the epoch counter. Factors
// live in a flat slice indexed by the fragment graph's dense vertex index so
// every rating edge of an SGD epoch lands on its operands without hashing.
type cfState struct {
	factors [][]float64 // dense vertex index -> latent vector (nil = unset)
	users   []int32     // dense indices of inner users, ascending by ID
	epoch   int
}

// CF is the PIE program for collaborative filtering via stochastic gradient
// descent — the demo's machine-learning query class. Each fragment trains on
// the ratings of its inner users; the latent vectors of border vertices
// (items rated from several fragments, mostly) are the update parameters,
// reconciled by parameter averaging.
//
// CF is the one program in the library without a monotonic order (SGD is
// not monotone); it terminates instead because every worker stops changing
// its parameters after a fixed number of epochs — GRAPE still reaches its
// fixpoint, it just cannot invoke the Assurance Theorem for it.
type CF struct{}

// Name implements engine.Program.
func (CF) Name() string { return "cf" }

// Spec implements engine.Program: factor vectors under parameter averaging.
func (CF) Spec() engine.VarSpec[[]float64] {
	return engine.VarSpec[[]float64]{
		Default: nil,
		Agg: func(a, b []float64) []float64 {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := make([]float64, len(a))
			for i := range a {
				out[i] = (a[i] + b[i]) / 2
			}
			return out
		},
	}
}

// initVec derives a deterministic pseudo-random initial factor vector from
// (seed, vertex); every replica of a vertex computes the same vector, so
// initialization ships nothing.
func initVec(seed int64, id graph.ID, k int) []float64 {
	v := make([]float64, k)
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9
	for i := range v {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		v[i] = float64(x%1000) / 10000.0 // [0, 0.1)
	}
	return v
}

// PEval implements engine.Program: initialize factors and run the first
// epoch (or all of them when the fragment shares nothing with others).
func (CF) PEval(q CFQuery, ctx *engine.Context[[]float64]) error {
	cfg := q.Cfg
	if cfg.Factors <= 0 || cfg.Epochs <= 0 {
		return fmt.Errorf("cf: need positive Factors and Epochs, got %+v", cfg)
	}
	f := ctx.Frag
	g := f.G
	st := &cfState{factors: make([][]float64, g.NumVertices())}
	ctx.State = st
	for i, v := range g.Vertices() {
		st.factors[i] = initVec(cfg.Seed, v, cfg.Factors)
	}
	for _, i := range f.InnerIndices() {
		if g.LabelAt(i) == "user" {
			st.users = append(st.users, i)
		}
	}
	epochs := 1
	if len(f.BorderIndices()) == 0 {
		epochs = cfg.Epochs // nothing to synchronize with
	}
	for e := 0; e < epochs; e++ {
		work, _, _ := seq.SGDEpochIdx(g, st.users, st.factors, cfg)
		ctx.AddWork(work)
		st.epoch++
	}
	cfShipBorder(ctx, st, cfg.Factors)
	return nil
}

// IncEval implements engine.Program: adopt the averaged border factors and
// run one more epoch, until the epoch budget is exhausted.
func (CF) IncEval(q CFQuery, ctx *engine.Context[[]float64]) error {
	st := ctx.State.(*cfState)
	for _, u := range ctx.UpdatedAt() {
		// adopted in place: the vector at factors[u] is this worker's alone
		// (only copies of it ship), the averaged one is shared with every host
		if avg := ctx.GetAt(u); len(st.factors[u]) == len(avg) {
			copy(st.factors[u], avg)
		} else {
			st.factors[u] = slices.Clone(avg)
		}
		ctx.AddWork(1)
	}
	if st.epoch >= q.Cfg.Epochs {
		return nil // trained out; stop changing parameters
	}
	work, _, _ := seq.SGDEpochIdx(ctx.Frag.G, st.users, st.factors, q.Cfg)
	ctx.AddWork(work)
	st.epoch++
	cfShipBorder(ctx, st, q.Cfg.Factors)
	return nil
}

// cfShipBorder publishes the border factors as they stand after an epoch: one
// copy each, carved from a slab allocated for this superstep, never written
// again (the fold, the routing buffers and every host's variables share it).
func cfShipBorder(ctx *engine.Context[[]float64], st *cfState, k int) {
	border := ctx.Frag.BorderIndices()
	slab := make([]float64, 0, len(border)*k)
	for _, b := range border {
		if int(b) >= len(st.factors) {
			continue // a copy a session added after PEval sized the state
		}
		if vec := st.factors[b]; len(vec) == k {
			slab = append(slab, vec...)
			ctx.SetAt(b, slab[len(slab)-k:len(slab):len(slab)])
		}
	}
}

// Assemble implements engine.Program: collect owner factors and compute the
// global RMSE with each rating evaluated under its owner fragment's model.
func (CF) Assemble(q CFQuery, ctxs []*engine.Context[[]float64]) (CFResult, error) {
	res := CFResult{Factors: make(seq.Factors, innerCount(ctxs))}
	var sq float64
	n := 0
	for _, ctx := range ctxs {
		st := ctx.State.(*cfState)
		g := ctx.Frag.G
		for _, i := range ctx.Frag.InnerIndices() {
			if vec := st.factors[i]; vec != nil {
				res.Factors[g.IDAt(i)] = vec
			}
		}
		for _, u := range st.users {
			pu := st.factors[u]
			for _, e := range g.OutAt(u) {
				qi := st.factors[e.To]
				if qi == nil {
					continue
				}
				d := e.W - seq.Dot(pu, qi)
				sq += d * d
				n++
			}
		}
	}
	if n > 0 {
		res.RMSE = math.Sqrt(sq / float64(n))
	}
	return res, nil
}

func parseCF(query string) (CFQuery, error) {
	kv, err := parseKV(query)
	if err != nil {
		return CFQuery{}, err
	}
	cfg := seq.DefaultCFConfig()
	if s, ok := kv["epochs"]; ok {
		if cfg.Epochs, err = strconv.Atoi(s); err != nil {
			return CFQuery{}, fmt.Errorf("cf: bad epochs: %v", err)
		}
	}
	if s, ok := kv["k"]; ok {
		if cfg.Factors, err = strconv.Atoi(s); err != nil {
			return CFQuery{}, fmt.Errorf("cf: bad k: %v", err)
		}
	}
	if s, ok := kv["lr"]; ok {
		if cfg.LR, err = strconv.ParseFloat(s, 64); err != nil {
			return CFQuery{}, fmt.Errorf("cf: bad lr: %v", err)
		}
	}
	if s, ok := kv["reg"]; ok {
		if cfg.Reg, err = strconv.ParseFloat(s, 64); err != nil {
			return CFQuery{}, fmt.Errorf("cf: bad reg: %v", err)
		}
	}
	return CFQuery{Cfg: cfg}, nil
}

// canonicalCF spells out every hyperparameter, so a query relying on a
// default and one naming it explicitly share a cache entry.
func canonicalCF(q CFQuery) string {
	return fmt.Sprintf("epochs=%d k=%d lr=%s reg=%s", q.Cfg.Epochs, q.Cfg.Factors, fmtFloat(q.Cfg.LR), fmtFloat(q.Cfg.Reg))
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[CFQuery, []float64, CFResult]{
		Prog:        CF{},
		Description: "collaborative filtering via SGD matrix factorization (one epoch per superstep, parameter averaging)",
		QueryHelp:   "[epochs=<n>] [k=<factors>] [lr=<rate>] [reg=<lambda>]",
		Parse:       parseCF,
		Canonical:   canonicalCF,
		Reference: func(g *graph.Graph, q CFQuery) CFResult {
			f, rmse := seq.TrainCF(g, seq.UsersOf(g), q.Cfg)
			return CFResult{RMSE: rmse, Factors: f}
		},
		// averaging is not sequential SGD: only a converged fit is held (≤ 5.9 % apart over 60 seeds)
		Agree: func(got, want CFResult) error {
			if !(math.Abs(got.RMSE-want.RMSE) <= 0.10*want.RMSE) {
				return fmt.Errorf("RMSE %g, want within 10%% of %g", got.RMSE, want.RMSE)
			}
			return nil
		},
	}))
}
