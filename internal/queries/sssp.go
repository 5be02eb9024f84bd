// Package queries is the GRAPE API library of the demo: PIE programs for the
// six query classes registered in Section 3 — single-source shortest paths
// (SSSP), connected components (CC), graph simulation (Sim), subgraph
// isomorphism (SubIso), keyword search (Keyword), and collaborative
// filtering (CF). Each program is exactly the paper's recipe: a textbook
// sequential PEval, a (bounded where possible) incremental IncEval, an
// Assemble, plus the two declarations GRAPE needs — update parameters and an
// aggregate function.
package queries

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// SSSPQuery asks for shortest distances from Source to every vertex.
type SSSPQuery struct {
	Source graph.ID
}

// SSSP is the PIE program of the paper's Example 1:
//
//	PEval    — Dijkstra's algorithm on the fragment, with an integer-like
//	           variable x_v per node (∞ unless v is the source) declared as
//	           the update parameter of the border nodes, aggregated by min.
//	IncEval  — the bounded incremental shortest-path algorithm of
//	           Ramalingam–Reps for the decrease-only case: relax outward
//	           from the border nodes whose x_v dropped; cost is a function
//	           of |M_i| + |ΔO_i|, not |F_i|.
//	Assemble — the union of the partial results.
//
// The update parameters decrease monotonically (Less = <), so the Assurance
// Theorem applies: the fixpoint terminates with exactly Dijkstra's answer.
type SSSP struct{}

// Name implements engine.Program.
func (SSSP) Name() string { return "sssp" }

// Spec implements engine.Program: x_v ∈ (ℝ≥0 ∪ {∞}, min, <).
func (SSSP) Spec() engine.VarSpec[float64] {
	return engine.VarSpec[float64]{
		Default: seq.Inf,
		Agg:     math.Min,
		Eq:      func(a, b float64) bool { return a == b },
		Less:    func(a, b float64) bool { return a < b },
		Size:    func(float64) int { return 8 },
	}
}

// PEval implements engine.Program with sequential Dijkstra over the fragment's
// CSR form: the source is found by the fragment's sorted lists, not the
// graph's ID index, and the relaxation runs through the hash-free dense
// accessors.
func (SSSP) PEval(q SSSPQuery, ctx *engine.Context[float64]) error {
	si, ok := ctx.Frag.Local(q.Source)
	if !ok {
		return nil
	}
	ctx.SetAt(si, 0)
	ctx.AddWork(seq.RelaxIdx(ctx.Frag.G, false, []int32{si}, ctx.GetAt, ctx.SetAt))
	return nil
}

// IncEval implements engine.Program with bounded incremental relaxation from
// the changed border nodes.
func (SSSP) IncEval(q SSSPQuery, ctx *engine.Context[float64]) error {
	ctx.AddWork(seq.RelaxIdx(ctx.Frag.G, false, ctx.UpdatedAt(), ctx.GetAt, ctx.SetAt))
	return nil
}

// ValidateUpdate implements engine.UpdateValidator: the decrease-only
// invariant is checkable from the update alone, so a negative weight is
// rejected before the engine touches the graph. Deletions carry no weight of
// their own (the engine fills in the removed instance's), so they pass.
func (SSSP) ValidateUpdate(q SSSPQuery, upd engine.EdgeUpdate) error {
	if !upd.Del && upd.W < 0 {
		return fmt.Errorf("sssp: negative edge weight %g", upd.W)
	}
	return nil
}

// CanRepair implements engine.Repairer: the invalidate-and-repropagate
// repair below is exact for any mix of insertions and deletions.
func (SSSP) CanRepair(q SSSPQuery, batch []engine.EdgeUpdate) bool { return true }

// RepairBatch implements engine.Repairer with invalidation and
// re-propagation. Inserting edge (u, v) (or lowering its weight) can only
// decrease distances downstream of u, so an insert-only batch seeds the next
// IncEval round at its reached tails and re-relaxes exactly the affected
// region — the decrease-only case of Ramalingam–Reps, still bounded.
// Deleting an edge can only break distances it supported: the affected
// region is seeded by the heads of deleted edges that were *tight*
// (dist(u) + w == dist(v)) and closed under tight out-edges of the mutated
// graph — at a shortest-path fixpoint every vertex's distance is supported by
// some tight in-edge, so a vertex whose tight in-edges all lead back into the
// region cannot keep its value. The region's variables are
// erased everywhere (including the coordinator's fold, so re-derived values
// are not suppressed as non-improvements), and the follow-up fixpoint
// re-relaxes from the region's surviving in-frontier plus any inserted
// edges' tails. Over-invalidation is harmless — re-propagation restores
// every distance the new graph still supports, and min over an identical
// set of path sums is bit-identical to a from-scratch run.
func (SSSP) RepairBatch(q SSSPQuery, sc *engine.RepairScope[float64], batch []engine.EdgeUpdate) (map[int][]graph.ID, error) {
	g := sc.Global()
	affected := make(map[graph.ID]float64) // vertex -> its invalidated old distance
	var queue []graph.ID
	suspect := func(v graph.ID, dv float64) {
		affected[v] = dv
		queue = append(queue, v)
	}
	for _, u := range batch {
		if !u.Del || u.To == q.Source {
			continue
		}
		if _, ok := affected[u.To]; ok {
			continue
		}
		du, dv := sc.Value(u.From), sc.Value(u.To)
		if du < seq.Inf && dv < seq.Inf && du+u.W == dv {
			suspect(u.To, dv)
		}
	}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		dx := affected[x]
		xi, _ := g.Index(x)
		for _, e := range g.OutAt(xi) {
			z := g.IDAt(e.To)
			if z == q.Source {
				continue
			}
			if _, ok := affected[z]; ok {
				continue
			}
			if dz := sc.Value(z); dz < seq.Inf && dx+e.W == dz {
				suspect(z, dz)
			}
		}
	}
	dirty := make(map[int][]graph.ID)
	for x := range affected {
		// the region's in-frontier re-proposes distances; the edge y->x
		// lives on y's owner, so that worker relaxes it
		xi, _ := g.Index(x)
		for _, e := range g.InAt(xi) {
			y := g.IDAt(e.To)
			if _, ok := affected[y]; ok {
				continue
			}
			if sc.Value(y) < seq.Inf {
				w := sc.Owner(y)
				dirty[w] = append(dirty[w], y)
			}
		}
	}
	for _, u := range batch {
		if u.Del {
			continue
		}
		if _, ok := affected[u.From]; ok {
			continue
		}
		if sc.Value(u.From) < seq.Inf {
			w := sc.Owner(u.From)
			dirty[w] = append(dirty[w], u.From)
		}
	}
	for x := range affected {
		sc.Invalidate(x)
	}
	return dirty, nil
}

var _ engine.Repairer[SSSPQuery, float64] = SSSP{}

// Assemble implements engine.Program: union of the inner-vertex distances.
// Ownership is tested by dense index — no per-vertex hash — and the map is
// sized by the vertices the source reached.
func (SSSP) Assemble(q SSSPQuery, ctxs []*engine.Context[float64]) (map[graph.ID]float64, error) {
	n := 0
	for _, ctx := range ctxs {
		ctx.VarsAt(func(i int32, d float64) {
			if ctx.IsInnerAt(i) && d < seq.Inf {
				n++
			}
		})
	}
	out := make(map[graph.ID]float64, n)
	for _, ctx := range ctxs {
		g := ctx.Frag.G
		ctx.VarsAt(func(i int32, d float64) {
			if ctx.IsInnerAt(i) && d < seq.Inf {
				out[g.IDAt(i)] = d
			}
		})
	}
	return out, nil
}

// innerCount is the number of vertices of the whole graph — every one is inner
// to exactly one fragment — and so the final size of a per-vertex result.
func innerCount[V any](ctxs []*engine.Context[V]) int {
	n := 0
	for _, ctx := range ctxs {
		n += len(ctx.Frag.InnerIndices())
	}
	return n
}

func parseSSSP(query string) (SSSPQuery, error) {
	kv, err := parseKV(query)
	if err != nil {
		return SSSPQuery{}, err
	}
	src, err := strconv.ParseInt(kv["source"], 10, 64)
	if err != nil {
		return SSSPQuery{}, fmt.Errorf("sssp: bad or missing source: %v", err)
	}
	return SSSPQuery{Source: graph.ID(src)}, nil
}

func canonicalSSSP(q SSSPQuery) string { return fmt.Sprintf("source=%d", q.Source) }

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[SSSPQuery, float64, map[graph.ID]float64]{
		Prog:        SSSP{},
		Description: "single-source shortest paths (Example 1: Dijkstra + bounded incremental relaxation, min aggregate)",
		QueryHelp:   "source=<vertex id>",
		Parse:       parseSSSP,
		Canonical:   canonicalSSSP,
		// exact: both sides take the least fixpoint of the same float sums
		Reference: func(g *graph.Graph, q SSSPQuery) map[graph.ID]float64 { return seq.Dijkstra(g, q.Source) },
		Agree:     agreeMaps[map[graph.ID]float64](equal),
	}))
}

// parseKV parses "k1=v1 k2=v2" query strings used by the registry.
func parseKV(query string) (map[string]string, error) {
	kv := make(map[string]string)
	for _, tok := range strings.Fields(query) {
		i := strings.IndexByte(tok, '=')
		if i < 0 {
			return nil, fmt.Errorf("queries: bad token %q, want key=value", tok)
		}
		kv[tok[:i]] = tok[i+1:]
	}
	return kv, nil
}
