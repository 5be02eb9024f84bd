package queries

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/index"
	"grape/internal/seq"
)

// KeywordQuery asks for the roots from which a holder of every keyword is
// reachable within Bound (weighted distance over out-edges).
type KeywordQuery struct {
	Keywords []string
	Bound    float64
	// UseIndex enables the per-fragment inverted keyword index built by the
	// Index Manager; disabling it makes PEval scan all vertex properties —
	// the ablation of experiment E9 (graph-level optimization).
	UseIndex bool
}

// Keyword is the PIE program for keyword search. The update parameter of a
// border node v is the vector of its distances to the nearest holder of each
// query keyword; vectors shrink element-wise (aggregate: element-wise min),
// so the computation is monotonic.
//
// A worker relaxes on one flat n×|k| array of working distances (kwState, in
// ctx.State) and the node variables hold what it has published: at the end of
// a superstep every row that dropped is copied once, out of one slab, into
// its variable — from where the engine ships border rows — so a relaxation
// allocates nothing and a published vector is never written again.
//
//	PEval    — per keyword, multi-source Dijkstra from the local keyword
//	           holders relaxing along in-edges (propagating "I can reach
//	           keyword k at cost d" to predecessors). Holders are found via
//	           the inverted index when enabled.
//	IncEval  — bounded incremental relaxation: keyword k is re-relaxed from
//	           exactly the nodes whose k-th component a message lowered.
//	Assemble — roots whose vectors are within the bound, ranked by total
//	           distance.
type Keyword struct{}

// Name implements engine.Program.
func (Keyword) Name() string { return "keyword" }

// kwVec is a keyword-distance vector; nil means "all unreached". Vectors are
// immutable once published: the fold, the routing buffers and every host's
// variables share them.
type kwVec = []float64

// Spec implements engine.Program: vectors over (ℝ≥0 ∪ {∞}, min, <) pointwise.
func (Keyword) Spec() engine.VarSpec[kwVec] {
	return engine.VarSpec[kwVec]{
		Default: nil,
		Agg: func(a, b kwVec) kwVec {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			// The pointwise min is one of the two whenever that one is
			// nowhere larger — nearly always — and then needs no new vector.
			aMin, bMin := true, true
			for i := range a {
				if a[i] > b[i] {
					aMin = false
				} else if a[i] < b[i] {
					bMin = false
				}
			}
			if aMin {
				return a
			}
			if bMin {
				return b
			}
			out := make(kwVec, len(a))
			for i := range a {
				out[i] = min(a[i], b[i])
			}
			return out
		},
		Less: func(a, b kwVec) bool {
			// a < b iff a ≤ b pointwise and a ≠ b (nil = all ∞, the top).
			if a == nil {
				return false
			}
			if b == nil {
				return true
			}
			strict := false
			for i := range a {
				if a[i] > b[i] {
					return false
				}
				if a[i] < b[i] {
					strict = true
				}
			}
			return strict
		},
	}
}

// kwState is a worker's working state across supersteps: row i of dist (nk
// entries) holds the distances of the vertex at dense index i, ∞ where
// unreached. Between supersteps every row equals its published variable.
type kwState struct {
	nk      int
	dist    []float64
	lowered []bool    // by dense index: the row dropped since the last publish
	rows    []int32   // the lowered rows, in the order they first dropped
	seeds   [][]int32 // per keyword: nodes the next relaxation starts from
}

// grow extends the state to n vertices (a session update may append outer
// copies to the fragment graph); new rows are unreached.
func (st *kwState) grow(n int) {
	have := len(st.lowered)
	if n <= have {
		return
	}
	st.lowered = append(st.lowered, make([]bool, n-have)...)
	st.dist = slices.Grow(st.dist, (n-have)*st.nk)[:n*st.nk]
	for i := have * st.nk; i < len(st.dist); i++ {
		st.dist[i] = seq.Inf
	}
}

// row returns the working distances of the vertex at dense index i.
func (st *kwState) row(i int32) []float64 { return st.dist[int(i)*st.nk : (int(i)+1)*st.nk] }

// lower sets component k of row i to the smaller d and notes the row for the
// next publish, as seq.RelaxCol notes the rows it lowers.
func (st *kwState) lower(i int32, k int, d float64) {
	st.row(i)[k] = d
	if !st.lowered[i] {
		st.lowered[i] = true
		st.rows = append(st.rows, i)
	}
}

// relax runs keyword k's relaxation from its queued seeds along the
// in-edges of g's CSR form, noting every row it lowers for the next publish,
// and returns the work.
func (st *kwState) relax(g *graph.Graph, k int) int64 {
	seeds := st.seeds[k]
	st.seeds[k] = seeds[:0]
	if len(seeds) == 0 {
		return 0
	}
	work, rows := seq.RelaxCol(g, true, seeds, st.dist, st.nk, k, st.lowered, st.rows)
	st.rows = rows
	return work
}

// publish copies every lowered row into its node variable, one copy each,
// carved from a slab allocated for this superstep.
func (st *kwState) publish(ctx *engine.Context[kwVec]) {
	nk := st.nk
	slab := make([]float64, len(st.rows)*nk)
	for j, i := range st.rows {
		pub := slab[j*nk : (j+1)*nk : (j+1)*nk]
		copy(pub, st.row(i))
		ctx.SetAt(i, pub)
		st.lowered[i] = false
	}
	st.rows = st.rows[:0]
}

// PEval implements engine.Program.
func (Keyword) PEval(q KeywordQuery, ctx *engine.Context[kwVec]) error {
	nk := len(q.Keywords)
	if nk == 0 {
		return fmt.Errorf("keyword: empty keyword list")
	}
	g := ctx.Frag.G
	n := g.NumVertices()
	st := &kwState{nk: nk, seeds: make([][]int32, nk)}
	st.grow(n)
	ctx.State = st
	var inv *index.Inverted
	if q.UseIndex {
		inv = index.BuildInverted(g)
		ctx.AddWork(int64(n)) // one-time index build
	}
	for k, w := range q.Keywords {
		if inv != nil {
			st.seeds[k] = append(st.seeds[k], inv.Lookup(w)...)
			ctx.AddWork(1)
		} else {
			ctx.AddWork(int64(n))
			for i := int32(0); int(i) < n; i++ {
				if slices.Contains(g.PropsAt(i), w) {
					st.seeds[k] = append(st.seeds[k], i)
				}
			}
		}
		for _, s := range st.seeds[k] {
			st.lower(s, k, 0)
		}
		ctx.AddWork(st.relax(g, k))
	}
	st.publish(ctx)
	return nil
}

// IncEval implements engine.Program. The rows of the updated nodes are
// brought level with their variables, queueing each node for exactly the
// keywords whose component a message lowered (RepairBatch may have queued
// more); then every keyword with seeds relaxes.
func (Keyword) IncEval(q KeywordQuery, ctx *engine.Context[kwVec]) error {
	st := ctx.State.(*kwState)
	g := ctx.Frag.G
	st.grow(g.NumVertices())
	for _, i := range ctx.UpdatedAt() {
		row := st.row(i)
		for k, d := range ctx.GetAt(i) {
			if d < row[k] {
				row[k] = d
				st.seeds[k] = append(st.seeds[k], i)
			}
		}
	}
	for k := range q.Keywords {
		ctx.AddWork(st.relax(g, k))
	}
	st.publish(ctx)
	return nil
}

// CanRepair implements engine.Repairer: insert-only batches. A deletion can
// raise distances, which the min-aggregated vectors cannot express; mixed
// batches reseed.
func (Keyword) CanRepair(q KeywordQuery, batch []engine.EdgeUpdate) bool {
	return !slices.ContainsFunc(batch, func(u engine.EdgeUpdate) bool { return u.Del })
}

// RepairBatch implements engine.Repairer: keyword distances relax along
// reverse edges, so inserting (u, v) can only improve u (and its ancestors)
// via v's vector. Queueing v on u's owner, for every keyword it reaches, as a
// seed of the next IncEval round re-relaxes exactly the affected region; if
// v's vector there is still unset (nil = all-∞), the new edge cannot improve
// anything yet and there is nothing to seed. v may be an outer copy the
// session added and filled in a moment ago: its row is brought level with the
// variable first.
func (Keyword) RepairBatch(q KeywordQuery, sc *engine.RepairScope[kwVec], batch []engine.EdgeUpdate) (map[int][]graph.ID, error) {
	dirty := make(map[int][]graph.ID)
	for _, u := range batch {
		w := sc.Owner(u.From)
		ctx := sc.Ctx(w)
		v, _ := ctx.Frag.G.Index(u.To) // the session hosts both endpoints before it calls
		vec := ctx.GetAt(v)
		if vec == nil {
			continue
		}
		st := ctx.State.(*kwState)
		st.grow(ctx.Frag.G.NumVertices())
		row := st.row(v)
		for k, d := range vec {
			row[k] = min(row[k], d)
			if d < seq.Inf {
				st.seeds[k] = append(st.seeds[k], v)
			}
		}
		dirty[w] = append(dirty[w], u.To)
	}
	return dirty, nil
}

var _ engine.Repairer[KeywordQuery, kwVec] = Keyword{}

// ValidateUpdate implements engine.UpdateValidator: distances need
// non-negative weights, checkable before the engine mutates anything.
// Deletions carry no weight of their own.
func (Keyword) ValidateUpdate(q KeywordQuery, upd engine.EdgeUpdate) error {
	if !upd.Del && upd.W < 0 {
		return fmt.Errorf("keyword: negative edge weight %g", upd.W)
	}
	return nil
}

// Assemble implements engine.Program: the roots that reach every keyword
// within the bound (bound=inf included), ranked as seq.KeywordSearch ranks.
func (Keyword) Assemble(q KeywordQuery, ctxs []*engine.Context[kwVec]) ([]seq.KeywordMatch, error) {
	nk := len(q.Keywords)
	r := seq.NewRanking(innerCount(ctxs))
	var short error
	for c, ctx := range ctxs {
		ctx.VarsAt(func(i int32, vec kwVec) {
			if !ctx.IsInnerAt(i) || vec == nil {
				return
			}
			if len(vec) < nk {
				short = fmt.Errorf("keyword: vertex %d holds %d distances for %d keywords", ctx.Frag.G.IDAt(i), len(vec), nk)
				return
			}
			score := 0.0
			for _, d := range vec[:nk] {
				if d == seq.Inf || d > q.Bound {
					return
				}
				score += d
			}
			r.Add(score, ctx.Frag.G.IDAt(i), int64(c)<<32|int64(i))
		})
	}
	if short != nil {
		return nil, short
	}
	return r.Matches(nk, func(ref int64) []float64 { return ctxs[ref>>32].GetAt(int32(ref)) }), nil
}

func parseKeyword(query string) (KeywordQuery, error) {
	kv, err := parseKV(query)
	if err != nil {
		return KeywordQuery{}, err
	}
	if kv["k"] == "" {
		return KeywordQuery{}, fmt.Errorf("keyword: missing k=<keywords>")
	}
	keywords := strings.Split(kv["k"], ",")
	if slices.Contains(keywords, "") {
		return KeywordQuery{}, fmt.Errorf("keyword: empty keyword in k=%q", kv["k"])
	}
	bound, err := strconv.ParseFloat(kv["bound"], 64)
	if err != nil {
		return KeywordQuery{}, fmt.Errorf("keyword: bad bound: %v", err)
	}
	// NaN compares false with every distance, so it would answer — and be
	// cached — as an unbounded query; a negative bound admits no root.
	if math.IsNaN(bound) || bound < 0 {
		return KeywordQuery{}, fmt.Errorf("keyword: bound must be a number >= 0, got %q", kv["bound"])
	}
	return KeywordQuery{Keywords: keywords, Bound: bound, UseIndex: kv["noindex"] == ""}, nil
}

// canonicalKeyword keeps the keyword order as given — it determines the
// order of the per-keyword distance vectors in the answer.
func canonicalKeyword(q KeywordQuery) string {
	s := "k=" + strings.Join(q.Keywords, ",") + " bound=" + fmtFloat(q.Bound)
	if !q.UseIndex {
		s += " noindex=1"
	}
	return s
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[KeywordQuery, kwVec, []seq.KeywordMatch]{
		Prog:        Keyword{},
		Description: "keyword search (multi-source Dijkstra per keyword via the inverted index, element-wise min aggregate)",
		QueryHelp:   "k=<w1,w2,...> bound=<d> [noindex=1]",
		Parse:       parseKeyword,
		Canonical:   canonicalKeyword,
		Reference: func(g *graph.Graph, q KeywordQuery) []seq.KeywordMatch {
			return seq.KeywordSearch(g, q.Keywords, q.Bound)
		},
		// exact: roots, their order, scores and distances bit for bit
		Agree: agreeRanked(func(a, b seq.KeywordMatch) bool {
			return a.Root == b.Root && a.Score == b.Score && slices.Equal(a.Dists, b.Dists)
		}),
	}))
}
