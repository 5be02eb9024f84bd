package queries

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/seq"
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
// through v is v's two edges to its neighbors a and b plus the edge {a, b}
// between them, and a fragment expanded by one hop (Options.ExpandHops = 1)
// keeps exactly such edges — the ones with an inner end, and those between
// two outer copies that close a triangle with an inner vertex. So
//
//	PEval    — the forward triangle count (seq.TrianglesAt): for each inner
//	           pivot v, the triangles {v, a, b} with v < a < b by ID, read
//	           off the fragment's larger-ID neighbor lists (graph.UpCSR,
//	           derived from its out-CSR once; no reverse CSR) — up(v)
//	           stamped, up(a) scanned for every a in up(v). Each triangle has
//	           one smallest vertex, so the count needs no deduplication;
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
	}
}

// PEval implements engine.Program: seq.TrianglesAt over the fragment's inner
// vertices. AddWork counts up-list scans: the entries the kernel read.
func (TriCount) PEval(q TriCountQuery, ctx *engine.Context[uint8]) error {
	f, g := ctx.Frag, ctx.Frag.G
	counts := make(map[graph.ID]int64)
	var total int64
	ctx.AddWork(seq.TrianglesAt(g, f.InnerIndices(), func(v int32, n int64) {
		counts[g.IDAt(v)] = n
		total += n
	}))
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
		if p, ok := ctx.Partial.(TriCountResult); ok {
			out.Total += p.Total
			maps.Copy(out.PerPivot, p.PerPivot)
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
	return TriCountResult{Total: res.Total, PerPivot: maps.Clone(res.PerPivot)}, nil
}

// ApplyPatch implements engine.SessionPatcher with the exact delta of the
// batch, read off the graphs before and after it. The count works on
// undirected neighbor sets, so only an undirected pair {u, v} whose adjacency
// the batch changed — a connection the batch created (no instance before, one
// after) or removed — changes the count; parallel and reverse instances do
// not. A lost triangle is one of the old graph with a removed pair, a new
// triangle one of the new graph with a created pair, and every other
// triangle is in both. So each changed pair counts the common neighbors w of
// its ends in the graph where it is connected — one end's neighbors stamped,
// the other's scanned — and each triangle {u, v, w} is counted once, by the
// smallest changed pair among its three, and credited to its smallest
// vertex, matching PEval's pivot rule.
func (TriCount) ApplyPatch(q TriCountQuery, old, g *graph.Graph, state any, batch []engine.EdgeUpdate) (any, error) {
	st := state.(TriCountResult)
	type pair struct{ a, b int32 } // dense indices, a < b
	pairOf := func(a, b int32) pair { return pair{min(a, b), max(a, b)} }
	changed := make(map[pair]bool) // the pairs whose adjacency the batch changed; true if it created them
	for _, u := range batch {
		a, _ := g.Index(u.From)
		b, _ := g.Index(u.To)
		if was, is := adjacent(old, a, b), adjacent(g, a, b); a != b && was != is {
			changed[pairOf(a, b)] = is // a self-loop touches no triangle
		}
	}
	var stamp []int32 // stamp[w] == k: w neighbors the first end of the k-th changed pair
	k := int32(0)
	for p, made := range changed {
		h, sign := old, int64(-1)
		if made {
			h, sign = g, 1
		}
		smaller := func(x pair) bool {
			_, ok := changed[x]
			return ok && (x.a < p.a || x.a == p.a && x.b < p.b)
		}
		if stamp == nil {
			stamp = make([]int32, g.NumVertices()) // old's vertices are a prefix of g's
		}
		k++
		for _, es := range [2][]graph.DenseEdge{h.OutAt(p.a), h.InAt(p.a)} {
			for _, e := range es {
				stamp[e.To] = k
			}
		}
		for _, es := range [2][]graph.DenseEdge{h.OutAt(p.b), h.InAt(p.b)} {
			for _, e := range es {
				w := e.To
				if w == p.a || w == p.b || stamp[w] != k {
					continue // a loop, or not a common neighbor, or one counted already
				}
				stamp[w] = 0
				if smaller(pairOf(p.a, w)) || smaller(pairOf(p.b, w)) {
					continue // a smaller changed pair counts this triangle
				}
				pivot := min(h.IDAt(p.a), h.IDAt(p.b), h.IDAt(w))
				st.Total += sign
				if st.PerPivot[pivot] += sign; st.PerPivot[pivot] == 0 {
					delete(st.PerPivot, pivot)
				}
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
	return TriCountResult{Total: st.Total, PerPivot: maps.Clone(st.PerPivot)}, nil
}

// RunTriCount runs the program with the 1-hop expansion it needs.
func RunTriCount(ctx context.Context, g *graph.Graph, opts engine.Options) (TriCountResult, *metrics.Stats, error) {
	opts.ExpandHops = 1
	return engine.Run(ctx, g, TriCount{}, TriCountQuery{}, opts)
}

// SeqTriangles is the sequential ground truth: seq.Triangles, the same
// kernel over every vertex of the whole graph.
func SeqTriangles(g *graph.Graph) int64 { return seq.Triangles(g) }

var _ engine.SessionPatcher[TriCountQuery, TriCountResult] = TriCount{}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[TriCountQuery, uint8, TriCountResult]{
		Prog:        TriCount{},
		Description: "triangle counting (forward count over larger-ID neighbors on 1-hop expanded fragments; single superstep)",
		QueryHelp:   "(no parameters)",
		Parse:       func(string) (TriCountQuery, error) { return TriCountQuery{}, nil },
		Canonical:   func(TriCountQuery) string { return "" },
		Hops:        func(TriCountQuery) int { return 1 },
		// seq counts the total only
		Reference: func(g *graph.Graph, _ TriCountQuery) TriCountResult { return TriCountResult{Total: seq.Triangles(g)} },
		Agree: func(got, want TriCountResult) error {
			if got.Total != want.Total {
				return fmt.Errorf("%d triangles, want %d", got.Total, want.Total)
			}
			return nil
		},
	}))
}
