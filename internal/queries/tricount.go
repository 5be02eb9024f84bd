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

// ApplyPatch implements engine.SessionPatcher with the exact delta of each
// edge update in turn: a triangle through edge {u, v} is a common undirected
// neighbor of u and v, so the update changes the count by |N(u) ∩ N(v)| —
// and only when it changes the undirected adjacency at all (a parallel or
// reverse instance means the neighbor *sets* the enumeration works on are
// unchanged). Insertions count common neighbors before the edge lands;
// deletions after the instance is gone, so both sides see the graph without
// the {u, v} connection. Each affected triangle is credited to its smallest
// vertex, matching PEval's pivot rule.
func (TriCount) ApplyPatch(q TriCountQuery, g *graph.Graph, state any, batch []engine.EdgeUpdate, apply func(i int)) (any, error) {
	st := state.(TriCountResult)
	for i, upd := range batch {
		u, v := upd.From, upd.To
		if u == v {
			apply(i)
			continue // self-loops touch no triangle
		}
		adjacent := func() bool { return undirectedNeighborSet(g, u)[v] }
		if upd.Del {
			apply(i)
			if adjacent() {
				continue // another instance still connects u and v
			}
			nu := undirectedNeighborSet(g, u)
			for w := range undirectedNeighborSet(g, v) {
				if !nu[w] {
					continue
				}
				st.Total--
				p := min(u, v, w)
				if st.PerPivot[p]--; st.PerPivot[p] == 0 {
					delete(st.PerPivot, p)
				}
			}
			continue
		}
		if adjacent() {
			apply(i)
			continue // set-semantics: adjacency unchanged
		}
		nu := undirectedNeighborSet(g, u)
		for w := range undirectedNeighborSet(g, v) {
			if nu[w] {
				st.Total++
				st.PerPivot[min(u, v, w)]++
			}
		}
		apply(i)
	}
	return st, nil
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

// undirectedNeighborSet returns the distinct neighbors of v over both edge
// directions.
func undirectedNeighborSet(g *graph.Graph, v graph.ID) map[graph.ID]bool {
	set := make(map[graph.ID]bool)
	for _, e := range g.Out(v) {
		if e.To != v {
			set[e.To] = true
		}
	}
	for _, e := range g.In(v) {
		if e.To != v {
			set[e.To] = true
		}
	}
	return set
}

// SeqTriangles is the sequential ground truth: direct enumeration over the
// whole graph with the same smallest-pivot rule.
func SeqTriangles(g *graph.Graph) int64 {
	var total int64
	for _, v := range g.SortedVertices() {
		var bigger []graph.ID
		for u := range undirectedNeighborSet(g, v) {
			if u > v {
				bigger = append(bigger, u)
			}
		}
		for i := 0; i < len(bigger); i++ {
			ai := undirectedNeighborSet(g, bigger[i])
			for j := i + 1; j < len(bigger); j++ {
				if ai[bigger[j]] {
					total++
				}
			}
		}
	}
	return total
}

func init() {
	engine.Register(entry(TriCount{},
		"triangle counting (pivot enumeration on 1-hop expanded fragments; single superstep)",
		"(no parameters)",
		func(string) (TriCountQuery, error) { return TriCountQuery{}, nil },
		func(TriCountQuery) string { return "" },
		func(TriCountQuery) int { return 1 }))
}
