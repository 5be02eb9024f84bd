package queries

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/seq"
)

// SubIsoQuery asks for subgraph-isomorphism embeddings of Pattern.
type SubIsoQuery struct {
	Pattern *graph.Graph
	// MaxMatches caps the global number of embeddings (0 = unlimited).
	// Workers each enumerate at most this many; Assemble re-truncates.
	MaxMatches int
	// name is the library name the pattern was parsed from, if any (see
	// SimQuery.name).
	name string
}

// SubIso is the PIE program for subgraph isomorphism. Unlike the iterative
// classes, SubIso is locality-bounded: a match anchored at a vertex v lies
// entirely within the d-hop neighborhood of v, where d is the pattern's
// radius. GRAPE therefore ships data in PEval instead of iterating: run it
// with Options.ExpandHops = Radius(q) so fragments carry the d-hop
// neighborhoods of their inner vertices, and
//
//	PEval    — seq.SubIso's backtracking, rooted at the fragment's inner
//	           vertices only (the anchor: each match is counted by exactly
//	           one fragment) and extended from there through the adjacency
//	           of already matched vertices, so its work follows what the
//	           pattern reaches from the inner vertices, not the size of the
//	           expanded fragment;
//	IncEval  — nothing to do: no update parameters change, so the fixpoint
//	           is reached after one superstep;
//	Assemble — concatenates and sorts the per-fragment match lists.
type SubIso struct{}

// Name implements engine.Program.
func (SubIso) Name() string { return "subiso" }

// Radius returns the fragment expansion (Options.ExpandHops) the query
// needs: the pattern's undirected eccentricity from the anchor vertex.
func (SubIso) Radius(q SubIsoQuery) int {
	return seq.PatternRadius(q.Pattern, anchorOf(q.Pattern))
}

// anchorOf designates the pattern vertex whose image decides match
// ownership: the first vertex of the matching order (most constrained).
func anchorOf(p *graph.Graph) graph.ID {
	vs := p.SortedVertices()
	if len(vs) == 0 {
		return graph.NoID
	}
	best := vs[0]
	bestDeg := -1
	for _, u := range vs {
		d := p.OutDegree(u) + p.InDegree(u)
		if d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

// Spec implements engine.Program. SubIso exchanges no update parameters;
// the dummy byte variable never changes, so the engine terminates after
// PEval — one parallel superstep, exactly the paper's behaviour for
// data-shipped locality queries.
func (SubIso) Spec() engine.VarSpec[uint8] {
	return engine.VarSpec[uint8]{
		Default: 0,
		Agg:     func(a, b uint8) uint8 { return a | b },
		Eq:      func(a, b uint8) bool { return a == b },
		Size:    func(uint8) int { return 1 },
	}
}

// PEval implements engine.Program.
func (SubIso) PEval(q SubIsoQuery, ctx *engine.Context[uint8]) error {
	if q.Pattern == nil || q.Pattern.NumVertices() == 0 {
		return fmt.Errorf("subiso: empty pattern")
	}
	f := ctx.Frag
	matches, work := seq.SubIso(q.Pattern, f.G, seq.SubIsoOptions{
		MaxMatches: q.MaxMatches,
		AnchorAt:   f.IsInnerAt,
		AnchorVar:  anchorOf(q.Pattern),
		AnchorIdx:  f.InnerIndices(),
	})
	ctx.AddWork(work)
	ctx.Partial = matches
	return nil
}

// IncEval implements engine.Program; it never runs (no parameters change).
func (SubIso) IncEval(q SubIsoQuery, ctx *engine.Context[uint8]) error { return nil }

// Assemble implements engine.Program.
func (SubIso) Assemble(q SubIsoQuery, ctxs []*engine.Context[uint8]) ([]seq.Match, error) {
	var all []seq.Match
	for _, ctx := range ctxs {
		if ctx.Partial == nil {
			continue
		}
		all = append(all, ctx.Partial.([]seq.Match)...)
	}
	sortMatches(q.Pattern, all)
	if q.MaxMatches > 0 && len(all) > q.MaxMatches {
		all = all[:q.MaxMatches]
	}
	return all, nil
}

// subIsoPatch is the session-retained state of the SubIso patcher: every
// match of the *uncapped* query, keyed by its image tuple, plus the pattern
// eccentricity bound that limits how far an edge update can matter.
type subIsoPatch struct {
	// diam is the largest undirected eccentricity over all pattern vertices:
	// whatever pattern vertex an updated edge's endpoint is the image of,
	// every other image of that match lies within diam undirected hops.
	diam    int
	matches map[string]seq.Match
}

// SessionQuery implements engine.SessionPatcher: the session enumerates the
// full match set internally. A MaxMatches cap cannot be patched — a new
// match may sort before retained ones, and a deleted match must be replaced
// by one the cap dropped — so the cap is applied per result in PatchResult.
func (SubIso) SessionQuery(q SubIsoQuery) SubIsoQuery {
	q.MaxMatches = 0
	return q
}

// InitPatch implements engine.SessionPatcher.
func (SubIso) InitPatch(q SubIsoQuery, g *graph.Graph, res []seq.Match) (any, error) {
	diam := 0
	for _, u := range q.Pattern.SortedVertices() {
		if r := seq.PatternRadius(q.Pattern, u); r > diam {
			diam = r
		}
	}
	st := &subIsoPatch{diam: diam, matches: make(map[string]seq.Match, len(res))}
	pv := q.Pattern.SortedVertices()
	for _, m := range res {
		st.matches[matchKey(pv, m)] = m
	}
	return st, nil
}

// ApplyPatch implements engine.SessionPatcher by re-matching the affected
// region: every match gaining or losing validity through edge {u, v}
// contains both endpoints, so its images lie within diam undirected hops of
// u and of v — measured on the graph that *contains* the edge (the match's
// own edges form the connecting paths). The region's matches are therefore
// re-enumerated from scratch on the induced subgraph and swapped wholesale
// into the retained set; matches reaching outside the region cannot involve
// the edge and stay untouched.
func (SubIso) ApplyPatch(q SubIsoQuery, g *graph.Graph, state any, upd engine.EdgeUpdate, apply func()) (any, error) {
	st := state.(*subIsoPatch)
	if upd.Del {
		// region on the pre-delete graph, which still has the edge
		region := ballUnion(g, upd.From, upd.To, st.diam)
		apply()
		st.rematch(q, g, region)
		return st, nil
	}
	apply()
	region := ballUnion(g, upd.From, upd.To, st.diam)
	st.rematch(q, g, region)
	return st, nil
}

// rematch replaces the retained matches lying fully inside region with a
// fresh enumeration over the region's induced subgraph.
func (st *subIsoPatch) rematch(q SubIsoQuery, g *graph.Graph, region map[graph.ID]bool) {
	pv := q.Pattern.SortedVertices()
	for k, m := range st.matches {
		inside := true
		for _, u := range pv {
			if !region[m[u]] {
				inside = false
				break
			}
		}
		if inside {
			delete(st.matches, k)
		}
	}
	sub := inducedSubgraph(g, region).Freeze() // ours alone: freeze it here, not a copy of it in SubIso
	found, _ := seq.SubIso(q.Pattern, sub, seq.SubIsoOptions{})
	for _, m := range found {
		st.matches[matchKey(pv, m)] = m
	}
}

// PatchResult implements engine.SessionPatcher: sort like Assemble and apply
// the user's cap globally.
func (SubIso) PatchResult(q SubIsoQuery, state any) ([]seq.Match, error) {
	st := state.(*subIsoPatch)
	var all []seq.Match
	for _, m := range st.matches {
		all = append(all, m)
	}
	sortMatches(q.Pattern, all)
	if q.MaxMatches > 0 && len(all) > q.MaxMatches {
		all = all[:q.MaxMatches]
	}
	return all, nil
}

// matchKey renders a match's image tuple (in sorted pattern-vertex order) as
// a map key.
func matchKey(pv []graph.ID, m seq.Match) string {
	buf := make([]byte, 0, 16*len(pv))
	for _, u := range pv {
		buf = strconv.AppendInt(buf, int64(m[u]), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// ballUnion returns the union of the undirected d-hop balls around a and b.
// Each ball is walked with its own visited set: the balls overlap, and a
// vertex reached at depth k from one source may still open fresh territory
// from the other.
func ballUnion(g *graph.Graph, a, b graph.ID, d int) map[graph.ID]bool {
	region := make(map[graph.ID]bool)
	for _, src := range []graph.ID{a, b} {
		seen := map[graph.ID]bool{src: true}
		region[src] = true
		frontier := []graph.ID{src}
		for hop := 0; hop < d && len(frontier) > 0; hop++ {
			var next []graph.ID
			visit := func(v graph.ID) {
				if !seen[v] {
					seen[v] = true
					region[v] = true
					next = append(next, v)
				}
			}
			for _, v := range frontier {
				for _, e := range g.Out(v) {
					visit(e.To)
				}
				for _, e := range g.In(v) {
					visit(e.To)
				}
			}
			frontier = next
		}
	}
	return region
}

// inducedSubgraph copies the region's vertices (with labels and properties)
// and every edge running between them. A match confined to the region uses
// only such edges, so enumeration on the copy is exact.
func inducedSubgraph(g *graph.Graph, region map[graph.ID]bool) *graph.Graph {
	sub := graph.New()
	ids := make([]graph.ID, 0, len(region))
	for v := range region {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	for _, v := range ids {
		sub.AddVertex(v, g.Label(v))
		if ps := g.Props(v); len(ps) > 0 {
			sub.SetProps(v, append([]string(nil), ps...))
		}
	}
	for _, v := range ids {
		for _, e := range g.Out(v) {
			if region[e.To] {
				sub.AddLabeledEdge(v, e.To, e.W, e.Label)
			}
		}
	}
	return sub
}

// sortMatches orders embeddings lexicographically by the images of the
// pattern vertices (in sorted pattern-vertex order) so results are
// deterministic regardless of fragmentation. A match is a map: its images are
// read out once, into one flat column of rows, and the rows are what is
// compared.
func sortMatches(p *graph.Graph, ms []seq.Match) {
	pv := p.SortedVertices()
	k := len(pv)
	keys := make([]graph.ID, len(ms)*k)
	order := make([]int32, len(ms))
	for i, m := range ms {
		order[i] = int32(i)
		for j, u := range pv {
			keys[i*k+j] = m[u]
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(keys[int(a)*k:][:k], keys[int(b)*k:][:k])
	})
	sorted := make([]seq.Match, len(ms))
	for i, j := range order {
		sorted[i] = ms[j]
	}
	copy(ms, sorted)
}

// RunSubIso runs the SubIso program with the fragment expansion the pattern
// requires. It is the helper the registry, GPAR and benches share.
func RunSubIso(ctx context.Context, g *graph.Graph, q SubIsoQuery, opts engine.Options) ([]seq.Match, *metrics.Stats, error) {
	opts.ExpandHops = (SubIso{}).Radius(q)
	return engine.Run(ctx, g, SubIso{}, q, opts)
}

func parseSubIso(query string) (SubIsoQuery, error) {
	kv, err := parseKV(query)
	if err != nil {
		return SubIsoQuery{}, err
	}
	p, err := PatternByName(kv["pattern"])
	if err != nil {
		return SubIsoQuery{}, err
	}
	max := 0
	if s, ok := kv["max"]; ok {
		if max, err = strconv.Atoi(s); err != nil {
			return SubIsoQuery{}, fmt.Errorf("subiso: bad max: %v", err)
		}
		// a negative cap would enumerate nothing yet canonicalize like the
		// unlimited query, poisoning any cache keyed on the canonical form
		if max < 0 {
			return SubIsoQuery{}, fmt.Errorf("subiso: max must be >= 0, got %d", max)
		}
	}
	return SubIsoQuery{Pattern: p, MaxMatches: max, name: kv["pattern"]}, nil
}

func canonicalSubIso(q SubIsoQuery) string {
	if q.MaxMatches > 0 {
		return fmt.Sprintf("pattern=%s max=%d", q.name, q.MaxMatches)
	}
	return "pattern=" + q.name
}

func init() {
	engine.Register(entry(SubIso{},
		"subgraph isomorphism (neighbour-driven backtracking PEval on d-hop expanded fragments; single superstep)",
		"pattern=<name> [max=<k>]",
		parseSubIso, canonicalSubIso,
		func(q SubIsoQuery) int { return (SubIso{}).Radius(q) }))
}
