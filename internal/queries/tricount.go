package queries

import (
	"cmp"
	"context"
	"slices"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
)

// TriCountQuery asks for the number of triangles in the undirected view of
// the graph: unordered vertex triples {a, b, c} pairwise connected by an
// edge in either direction.
type TriCountQuery struct{}

// TriCountResult carries the global count and the per-vertex counts of
// triangles pivoted at each vertex.
type TriCountResult struct {
	Total    int64
	PerPivot map[graph.ID]int64
}

// TriCount is a second locality-bounded PIE program (beyond SubIso),
// demonstrating that the data-shipping pattern generalizes: a triangle
// through v lies inside v's 1-hop neighborhood, so with fragments expanded
// by one hop (Options.ExpandHops = 1),
//
//	PEval    — the textbook pivot enumeration: for each inner pivot v and
//	           neighbor pair (a, b) of v, count the triangle iff a and b are
//	           adjacent and v is the smallest endpoint (each triangle has
//	           exactly one smallest vertex, so the global count needs no
//	           deduplication);
//	IncEval  — nothing to do: one superstep;
//	Assemble — sums the per-fragment counts.
type TriCount struct{}

// Name implements engine.Program.
func (TriCount) Name() string { return "tricount" }

// Spec implements engine.Program (no update parameters are exchanged).
func (TriCount) Spec() engine.VarSpec[uint8] {
	return engine.VarSpec[uint8]{
		Default: 0,
		Agg:     func(a, b uint8) uint8 { return a | b },
		Eq:      func(a, b uint8) bool { return a == b },
		Size:    func(uint8) int { return 1 },
	}
}

// PEval implements engine.Program. The pivot enumeration runs over the CSR
// form with epoch-stamped scratch arrays for neighbor dedup and adjacency
// tests — no per-pivot map allocation and no hash per traversed edge.
func (TriCount) PEval(q TriCountQuery, ctx *engine.Context[uint8]) error {
	f := ctx.Frag
	g := f.G
	nv := g.NumVertices()
	counts := make(map[graph.ID]int64)
	var total int64
	// epoch-stamped scratch: seen dedups a pivot's neighborhood, adj marks
	// the neighborhood of one `bigger` candidate for O(1) adjacency tests.
	seen := make([]int32, nv)
	adj := make([]int32, nv)
	epoch, adjEpoch := int32(0), int32(0)
	var bigger []int32
	iidx := f.InnerIndices()
	inOff, inDense := g.InCSR()
	for k, v := range f.Inner {
		vi := iidx[k]
		epoch++
		nbrs := 0
		bigger = bigger[:0]
		collect := func(t int32) {
			if t == vi || seen[t] == epoch {
				return
			}
			seen[t] = epoch
			nbrs++
			if g.IDAt(t) > v {
				bigger = append(bigger, t)
			}
		}
		for _, e := range g.OutAt(vi) {
			collect(e.To)
		}
		for _, e := range inDense[inOff[vi]:inOff[vi+1]] {
			collect(e.To)
		}
		ctx.AddWork(int64(nbrs))
		slices.SortFunc(bigger, func(a, b int32) int { return cmp.Compare(g.IDAt(a), g.IDAt(b)) })
		for i := 0; i < len(bigger); i++ {
			adjEpoch++
			bi := bigger[i]
			for _, e := range g.OutAt(bi) {
				if e.To != bi {
					adj[e.To] = adjEpoch
				}
			}
			for _, e := range inDense[inOff[bi]:inOff[bi+1]] {
				if e.To != bi {
					adj[e.To] = adjEpoch
				}
			}
			for j := i + 1; j < len(bigger); j++ {
				ctx.AddWork(1)
				if adj[bigger[j]] == adjEpoch {
					counts[v]++
					total++
				}
			}
		}
	}
	ctx.Partial = TriCountResult{Total: total, PerPivot: counts}
	return nil
}

// IncEval implements engine.Program; it never runs.
func (TriCount) IncEval(q TriCountQuery, ctx *engine.Context[uint8]) error { return nil }

// Assemble implements engine.Program.
func (TriCount) Assemble(q TriCountQuery, ctxs []*engine.Context[uint8]) (TriCountResult, error) {
	pivots := 0
	for _, ctx := range ctxs {
		if p, ok := ctx.Partial.(TriCountResult); ok {
			pivots += len(p.PerPivot) // a pivot is inner to one fragment: the final size
		}
	}
	out := TriCountResult{PerPivot: make(map[graph.ID]int64, pivots)}
	for _, ctx := range ctxs {
		if ctx.Partial == nil {
			continue
		}
		p := ctx.Partial.(TriCountResult)
		out.Total += p.Total
		for v, c := range p.PerPivot {
			out.PerPivot[v] += c
		}
	}
	return out, nil
}

// SessionQuery implements engine.SessionPatcher; the query carries no
// parameters to widen.
func (TriCount) SessionQuery(q TriCountQuery) TriCountQuery { return q }

// InitPatch implements engine.SessionPatcher: retain a private copy of the
// assembled counts (the caller keeps the returned result).
func (TriCount) InitPatch(q TriCountQuery, g *graph.Graph, res TriCountResult) (any, error) {
	st := TriCountResult{Total: res.Total, PerPivot: make(map[graph.ID]int64, len(res.PerPivot))}
	for v, c := range res.PerPivot {
		st.PerPivot[v] = c
	}
	return st, nil
}

// ApplyPatch implements engine.SessionPatcher with the exact delta of the
// batch, read off the graphs before and after it. The enumeration works on
// undirected neighbor sets, so only an undirected pair {u, v} whose adjacency
// the batch changed — a connection the batch created (no instance before, one
// after) or removed — changes the count; parallel and reverse instances do
// not. A lost triangle is one of the old graph with a removed pair, a new
// triangle one of the new graph with a created pair, and every other
// triangle is in both. So each changed pair counts the common neighbors w of
// its ends in the graph where it is connected, and each triangle {u, v, w}
// is counted once, by the smallest changed pair among its three, and credited
// to its smallest vertex, matching PEval's pivot rule.
func (TriCount) ApplyPatch(q TriCountQuery, old, g *graph.Graph, state any, batch []engine.EdgeUpdate) (any, error) {
	st := state.(TriCountResult)
	type pair struct{ a, b int32 } // dense indices, a < b
	pairOf := func(a, b int32) pair { return pair{min(a, b), max(a, b)} }
	seen := make(map[pair]bool)
	changed := make(map[pair]bool) // the pairs whose adjacency the batch changed; true if it created them
	for _, u := range batch {
		a, _ := g.Index(u.From)
		b, _ := g.Index(u.To)
		p := pairOf(a, b)
		if a == b || seen[p] {
			continue // a self-loop touches no triangle; a repeated pair is checked already
		}
		seen[p] = true
		if was, is := adjacent(old, a, b), adjacent(g, a, b); was != is {
			changed[p] = is
		}
	}
	for p, made := range changed {
		h, sign := old, int64(-1)
		if made {
			h, sign = g, 1
		}
		smaller := func(x pair) bool {
			_, ok := changed[x]
			return ok && (x.a < p.a || x.a == p.a && x.b < p.b)
		}
		na := undirectedNeighborSet(h, p.a)
		for w := range undirectedNeighborSet(h, p.b) {
			if !na[w] || smaller(pairOf(p.a, w)) || smaller(pairOf(p.b, w)) {
				continue // no triangle, or one a smaller changed pair counts
			}
			pivot := min(h.IDAt(p.a), h.IDAt(p.b), h.IDAt(w))
			st.Total += sign
			if st.PerPivot[pivot] += sign; st.PerPivot[pivot] == 0 {
				delete(st.PerPivot, pivot)
			}
		}
	}
	return st, nil
}

// adjacent reports whether an edge joins the vertices at dense indices a and
// b, in either direction.
func adjacent(g *graph.Graph, a, b int32) bool {
	has := func(x, y int32) bool {
		return slices.ContainsFunc(g.OutAt(x), func(e graph.DenseEdge) bool { return e.To == y })
	}
	return has(a, b) || has(b, a)
}

// PatchResult implements engine.SessionPatcher: hand out a copy, matching
// Assemble's fresh-maps-per-call contract.
func (TriCount) PatchResult(q TriCountQuery, state any) (TriCountResult, error) {
	st := state.(TriCountResult)
	out := TriCountResult{Total: st.Total, PerPivot: make(map[graph.ID]int64, len(st.PerPivot))}
	for v, c := range st.PerPivot {
		out.PerPivot[v] = c
	}
	return out, nil
}

// RunTriCount runs the program with the 1-hop expansion it needs.
func RunTriCount(ctx context.Context, g *graph.Graph, opts engine.Options) (TriCountResult, *metrics.Stats, error) {
	opts.ExpandHops = 1
	return engine.Run(ctx, g, TriCount{}, TriCountQuery{}, opts)
}

// undirectedNeighborSet returns the distinct neighbors of the vertex at dense
// index v over both edge directions, as dense indices.
func undirectedNeighborSet(g *graph.Graph, v int32) map[int32]bool {
	set := make(map[int32]bool)
	for _, es := range [2][]graph.DenseEdge{g.OutAt(v), g.InAt(v)} {
		for _, e := range es {
			if e.To != v {
				set[e.To] = true
			}
		}
	}
	return set
}

// SeqTriangles is the sequential ground truth: direct enumeration over the
// whole graph with the same smallest-pivot rule.
func SeqTriangles(g *graph.Graph) int64 {
	neighbors := func(v graph.ID) map[graph.ID]bool {
		set := make(map[graph.ID]bool)
		for _, es := range [2][]graph.Edge{g.Out(v), g.In(v)} {
			for _, e := range es {
				if e.To != v {
					set[e.To] = true
				}
			}
		}
		return set
	}
	var total int64
	for _, v := range g.SortedVertices() {
		var bigger []graph.ID
		for u := range neighbors(v) {
			if u > v {
				bigger = append(bigger, u)
			}
		}
		for i := 0; i < len(bigger); i++ {
			ai := neighbors(bigger[i])
			for j := i + 1; j < len(bigger); j++ {
				if ai[bigger[j]] {
					total++
				}
			}
		}
	}
	return total
}

var _ engine.SessionPatcher[TriCountQuery, TriCountResult] = TriCount{}

func init() {
	engine.Register(entry(TriCount{},
		"triangle counting (pivot enumeration on 1-hop expanded fragments; single superstep)",
		"(no parameters)",
		func(string) (TriCountQuery, error) { return TriCountQuery{}, nil },
		func(TriCountQuery) string { return "" },
		func(TriCountQuery) int { return 1 }))
}
