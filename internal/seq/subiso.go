package seq

import (
	"cmp"
	"slices"

	"grape/internal/graph"
)

// Match is one subgraph-isomorphism embedding: pattern vertex -> data vertex.
type Match map[graph.ID]graph.ID

// SubIsoOptions bounds enumeration.
type SubIsoOptions struct {
	// MaxMatches stops enumeration after this many embeddings (0 = no cap).
	MaxMatches int
	// AnchorAt, if non-nil, restricts matches of pattern vertex AnchorVar to
	// the data vertices, addressed by dense index, for which it returns
	// true. The GRAPE SubIso PEval uses it to count each match exactly once
	// across fragments: a match is owned by the fragment owning its anchor
	// vertex.
	AnchorAt  func(int32) bool
	AnchorVar graph.ID
	// AnchorIdx is the index behind AnchorAt: the dense indices of exactly
	// the vertices it accepts, in ascending vertex-ID order. Given one, the
	// matching order opens at AnchorVar and enumeration starts from this list
	// instead of testing every vertex of the graph — on a d-hop-expanded
	// fragment the inner vertices are a fraction of it, in a session patch
	// the sources of one batch. The embeddings are those of the unindexed
	// call; their order (and so the prefix a MaxMatches cap keeps) is the
	// default one only when AnchorVar already opens it, as the first
	// max-degree pattern vertex by ID does.
	AnchorIdx []int32
}

// pedge is a pattern edge between a position of the matching order and an
// earlier, already bound one, resolved against the data graph's intern table.
type pedge struct {
	tpos int   // matching-order position of the bound endpoint
	out  bool  // the data edge runs from the candidate to the bound vertex
	lid  int32 // interned data label the edge must carry
	any  bool  // empty pattern label matches every data edge
}

// SubIso enumerates embeddings of pattern p into g by backtracking along a
// connectivity-aware matching order. Pattern edges must map to data edges
// with matching labels (empty pattern label matches any); vertex labels must
// match exactly; the mapping is injective.
//
// Only the first position of the order (and the first of every further
// pattern component) is bound by scanning candidates. Every other position
// has a pattern edge to a bound vertex, and is bound by walking that vertex's
// adjacency — the smallest one, when several bound neighbours offer theirs —
// and testing label, degree, anchor and the remaining pattern edges on those
// few vertices: the binary-join step of a worst-case-optimal join, work
// proportional to what the partial match reaches, not to |g| per position.
// Candidates are visited in ascending vertex-ID order at every position, so
// the embeddings, and their order under MaxMatches, are those of a full
// candidate scan. Everything runs on dense indices and interned labels.
//
// It returns the embeddings and the work spent (vertices and adjacency
// entries examined).
func SubIso(p, g *graph.Graph, opts SubIsoOptions) ([]Match, int64) {
	first := graph.NoID
	if opts.AnchorAt != nil && opts.AnchorIdx != nil {
		first = opts.AnchorVar
	}
	pv := orderPatternVertices(p, first)
	np := len(pv)
	if np == 0 {
		return nil, 0
	}
	pidx := make([]int32, np)           // matching-order position -> pattern dense index
	pos := make([]int, p.NumVertices()) // pattern dense index -> matching-order position
	for i, u := range pv {
		pidx[i], _ = p.Index(u)
		pos[pidx[i]] = i
	}
	// Per position: the interned vertex label, the degree bound and the
	// pattern edges towards earlier positions. A label the data graph does
	// not carry at all ends the search here.
	vlab := make([]int32, np)
	minDeg := make([]int, np)
	chk := make([][]pedge, np)
	apos := -1 // position of the anchored pattern vertex
	for i, u := range pv {
		ui := pidx[i]
		var ok bool
		if vlab[i], ok = g.LabelID(p.LabelAt(ui)); !ok {
			return nil, 0
		}
		minDeg[i] = p.OutDegreeAt(ui)
		if u == opts.AnchorVar && opts.AnchorAt != nil {
			apos = i
		}
		for dir, pes := range [2][]graph.DenseEdge{p.InAt(ui), p.OutAt(ui)} {
			for _, pe := range pes {
				j := pos[pe.To]
				if j >= i {
					continue
				}
				label := p.LabelName(pe.Label)
				e := pedge{tpos: j, out: dir == 1, any: label == ""}
				if e.lid, ok = g.LabelID(label); !ok && !e.any {
					return nil, 0
				}
				chk[i] = append(chk[i], e)
			}
		}
	}

	var work int64
	assign := make([]int32, np)
	fits := func(i int, v int32, anchored bool) bool {
		return g.LabelIDAt(v) == vlab[i] && g.OutDegreeAt(v) >= minDeg[i] &&
			(!anchored || opts.AnchorAt(v))
	}
	// adjacent returns the adjacency of e's bound endpoint in which a
	// candidate for the other endpoint must appear.
	adjacent := func(e pedge) []graph.DenseEdge {
		if e.out {
			return g.InAt(assign[e.tpos])
		}
		return g.OutAt(assign[e.tpos])
	}
	hasEdge := func(e pedge, v int32) bool {
		from, to := assign[e.tpos], v
		if e.out {
			from, to = to, from
		}
		for _, ge := range g.OutAt(from) {
			if ge.To == to && (e.any || ge.Label == e.lid) {
				return true
			}
		}
		return false
	}
	byID := func(a, b int32) int { return cmp.Compare(g.IDAt(a), g.IDAt(b)) }

	// scanned holds the candidates of the positions without a bound
	// neighbour, which do not depend on the partial match: the anchor index
	// when it applies, else every vertex, in ascending-ID order either way.
	scanned := make([][]int32, np)
	for i := range pv {
		if len(chk[i]) > 0 {
			continue
		}
		all, anchored := opts.AnchorIdx, false
		if i != apos || all == nil {
			all, anchored = g.SortedIndices(), i == apos
		}
		work += int64(len(all))
		for _, v := range all {
			if fits(i, v, anchored) {
				scanned[i] = append(scanned[i], v)
			}
		}
	}
	// candidates lists, in ascending-ID order, the vertices position i can
	// take given assign[:i]; buf[i] is the position's scratch, free again
	// once its loop in rec ends.
	buf := make([][]int32, np)
	candidates := func(i int) []int32 {
		if len(chk[i]) == 0 {
			return scanned[i]
		}
		pivot, adj := 0, adjacent(chk[i][0])
		for k, e := range chk[i][1:] {
			if a := adjacent(e); len(a) < len(adj) {
				pivot, adj = k+1, a
			}
		}
		work += int64(len(adj))
		cs := buf[i][:0]
	next:
		for _, ge := range adj {
			v := ge.To
			if e := chk[i][pivot]; !(e.any || ge.Label == e.lid) || !fits(i, v, i == apos) {
				continue
			}
			for k, e := range chk[i] {
				if k != pivot && !hasEdge(e, v) {
					continue next
				}
			}
			cs = append(cs, v)
		}
		slices.SortFunc(cs, byID)
		cs = slices.Compact(cs) // parallel data edges list a neighbour twice
		buf[i] = cs
		return cs
	}

	var out []Match
	var rec func(i int) bool // returns false to abort (cap reached)
	rec = func(i int) bool {
		if i == np {
			m := make(Match, np)
			for k, u := range pv {
				m[u] = g.IDAt(assign[k])
			}
			out = append(out, m)
			return opts.MaxMatches == 0 || len(out) < opts.MaxMatches
		}
		for _, v := range candidates(i) {
			work++
			if slices.Contains(assign[:i], v) {
				continue
			}
			assign[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return out, work
}

// orderPatternVertices returns p's vertices in a connectivity-aware matching
// order: start from first if p has it, else from the first vertex by ID with
// the most edges, then repeatedly pick the unvisited vertex most connected to
// the visited set. In a connected order every position after the first has a
// bound neighbour to be reached through.
func orderPatternVertices(p *graph.Graph, first graph.ID) []graph.ID {
	vs := p.SortedIndices()
	if len(vs) == 0 {
		return nil
	}
	start, ok := p.Index(first)
	if !ok {
		deg := func(u int32) int { return p.OutDegreeAt(u) + p.InDegreeAt(u) }
		start = vs[0]
		for _, u := range vs {
			if deg(u) > deg(start) {
				start = u
			}
		}
	}
	order := []graph.ID{p.IDAt(start)}
	inOrder := make([]bool, len(vs))
	inOrder[start] = true
	for len(order) < len(vs) {
		best, bestConn := int32(-1), -1
		for _, u := range vs { // ascending ID: the first of the most connected wins
			if inOrder[u] {
				continue
			}
			conn := 0
			for _, es := range [2][]graph.DenseEdge{p.OutAt(u), p.InAt(u)} {
				for _, e := range es {
					if inOrder[e.To] {
						conn++
					}
				}
			}
			if conn > bestConn {
				best, bestConn = u, conn
			}
		}
		order = append(order, p.IDAt(best))
		inOrder[best] = true
	}
	return order
}

// PatternRadius returns the maximum hop distance (ignoring direction) from
// anchor to any pattern vertex — the d used to expand fragments so that
// every match anchored at an inner vertex is fully local.
func PatternRadius(p *graph.Graph, anchor graph.ID) int {
	a, ok := p.Index(anchor)
	if !ok {
		return 0
	}
	dist := make([]int, p.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []int32{a}
	max := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, es := range [2][]graph.DenseEdge{p.OutAt(u), p.InAt(u)} {
			for _, e := range es {
				if dist[e.To] < 0 {
					dist[e.To] = dist[u] + 1
					max = dist[e.To] // breadth-first: never below an earlier one
					queue = append(queue, e.To)
				}
			}
		}
	}
	return max
}
