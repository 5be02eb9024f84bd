package queries

import (
	"cmp"
	"context"
	"fmt"
	"maps"
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
// neighborhoods of their inner vertices. At radius 1 every pattern edge
// touches the anchor or joins two of its neighbors, so the 1-hop fragment
// keeps the edges with an inner end and those between two outer copies
// with an inner neighbor in common, and no others; at radius 2 and more it
// keeps every edge of the neighborhood. Then
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
	return capped(q, all), nil
}

// capped applies the query's global cap to matches in answer order.
func capped(q SubIsoQuery, ms []seq.Match) []seq.Match {
	if q.MaxMatches > 0 && len(ms) > q.MaxMatches {
		return ms[:q.MaxMatches]
	}
	return ms
}

// SessionQuery implements engine.SessionPatcher: the session enumerates the
// full match set internally. A MaxMatches cap cannot be patched — a new
// match may sort before retained ones, and a deleted match must be replaced
// by one the cap dropped — so the cap is applied per result in PatchResult.
func (SubIso) SessionQuery(q SubIsoQuery) SubIsoQuery {
	q.MaxMatches = 0
	return q
}

// InitPatch implements engine.SessionPatcher. The retained state is every
// match of the *uncapped* query in answer order (Assemble's), in a slice of
// its own: the caller keeps res.
func (SubIso) InitPatch(q SubIsoQuery, g *graph.Graph, res []seq.Match) (any, error) {
	return slices.Clone(res), nil
}

// ApplyPatch implements engine.SessionPatcher by anchored re-enumeration,
// the delta rule of a binary join. Whether an image tuple is a match depends
// on vertex labels, on the out-edges of its images and on their out-degrees
// — nothing else — and an update (u, v) changes only u's. So after the whole
// batch lands, exactly the matches whose image contains a source S of the
// batch may have changed: they are dropped, and for each pattern vertex p
// the matches mapping p into S are enumerated afresh, anchored there. The
// union of those runs is every current match touching S; the other retained
// matches are untouched by the batch, stay in order, and take the few fresh
// ones in by merge. Only the graph after the batch is read.
func (SubIso) ApplyPatch(q SubIsoQuery, _, g *graph.Graph, state any, batch []engine.EdgeUpdate) (any, error) {
	srcs := make(map[graph.ID]bool, len(batch))
	for _, u := range batch {
		srcs[u.From] = true
	}
	pv := q.Pattern.SortedVertices()
	kept := slices.DeleteFunc(state.([]seq.Match), func(m seq.Match) bool {
		return slices.ContainsFunc(pv, func(u graph.ID) bool { return srcs[m[u]] })
	})
	anchors := make(map[int32]bool, len(srcs))
	idx := make([]int32, 0, len(srcs))
	for _, v := range slices.Sorted(maps.Keys(srcs)) {
		i, _ := g.Index(v)
		anchors[i] = true
		idx = append(idx, i)
	}
	var fresh []seq.Match
	for _, p := range pv {
		found, _ := seq.SubIso(q.Pattern, g, seq.SubIsoOptions{
			AnchorAt:  func(i int32) bool { return anchors[i] },
			AnchorVar: p,
			AnchorIdx: idx,
		})
		fresh = append(fresh, found...)
	}
	// a match touching S at several pattern vertices was found once per vertex
	order := func(a, b seq.Match) int { return compareMatches(pv, a, b) }
	sortMatches(q.Pattern, fresh)
	fresh = slices.CompactFunc(fresh, func(a, b seq.Match) bool { return order(a, b) == 0 })
	merged := make([]seq.Match, 0, len(kept)+len(fresh))
	for _, m := range fresh {
		at, _ := slices.BinarySearchFunc(kept, m, order)
		merged = append(append(merged, kept[:at]...), m)
		kept = kept[at:]
	}
	return append(merged, kept...), nil
}

// PatchResult implements engine.SessionPatcher: the retained matches are in
// answer order already; apply the user's cap globally.
func (SubIso) PatchResult(q SubIsoQuery, state any) ([]seq.Match, error) {
	return append([]seq.Match(nil), capped(q, state.([]seq.Match))...), nil // nil when empty, like Assemble
}

var _ engine.SessionPatcher[SubIsoQuery, []seq.Match] = SubIso{}

// compareMatches orders two embeddings by their images in pv order, the
// order sortMatches establishes.
func compareMatches(pv []graph.ID, a, b seq.Match) int {
	for _, u := range pv {
		if c := cmp.Compare(a[u], b[u]); c != 0 {
			return c
		}
	}
	return 0
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
	engine.Register(engine.MakeEntry(engine.EntrySpec[SubIsoQuery, uint8, []seq.Match]{
		Prog:        SubIso{},
		Description: "subgraph isomorphism (neighbour-driven backtracking PEval on d-hop expanded fragments; single superstep)",
		QueryHelp:   "pattern=<name> [max=<k>]",
		Parse:       parseSubIso,
		Canonical:   canonicalSubIso,
		Hops:        SubIso{}.Radius,
		Reference: func(g *graph.Graph, q SubIsoQuery) []seq.Match {
			ms, _ := seq.SubIso(q.Pattern, g, seq.SubIsoOptions{})
			sortMatches(q.Pattern, ms)
			return capped(q, ms)
		},
		Agree: agreeRanked(maps.Equal[seq.Match]), // exact in rank order
	}))
}
