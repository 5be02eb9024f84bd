package seq

import "grape/internal/graph"

// subIsoScan is the enumeration SubIso used before it became
// neighbour-driven, kept as the reference of the equivalence suites: at every
// position of the matching order it scans a table of all label/degree/anchor
// candidates in ascending-ID order and tests the pattern edges towards the
// positions already bound. It reads the graph through the sparse accessors.
func subIsoScan(p, g *graph.Graph, opts SubIsoOptions) []Match {
	pv := orderPatternVertices(p, graph.NoID)
	if len(pv) == 0 {
		return nil
	}
	// Candidate sets per pattern vertex by label and degree.
	cands := make(map[graph.ID][]graph.ID, len(pv))
	for _, u := range pv {
		var cs []graph.ID
		for _, v := range g.SortedVertices() {
			if g.Label(v) != p.Label(u) {
				continue
			}
			if g.OutDegree(v) < p.OutDegree(u) {
				continue
			}
			if i, _ := g.Index(v); u == opts.AnchorVar && opts.AnchorAt != nil && !opts.AnchorAt(i) {
				continue
			}
			cs = append(cs, v)
		}
		cands[u] = cs
	}

	var out []Match
	assign := make(Match, len(pv))
	used := make(map[graph.ID]bool, len(pv))

	var rec func(i int) bool // returns false to abort (cap reached)
	rec = func(i int) bool {
		if i == len(pv) {
			m := make(Match, len(assign))
			for k, v := range assign {
				m[k] = v
			}
			out = append(out, m)
			return opts.MaxMatches == 0 || len(out) < opts.MaxMatches
		}
		u := pv[i]
		for _, v := range cands[u] {
			if used[v] {
				continue
			}
			if !edgesConsistent(p, g, assign, u, v) {
				continue
			}
			assign[u] = v
			used[v] = true
			ok := rec(i + 1)
			delete(assign, u)
			delete(used, v)
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}

// edgesConsistent checks every pattern edge between u and already-assigned
// pattern vertices against the data graph.
func edgesConsistent(p, g *graph.Graph, assign Match, u, v graph.ID) bool {
	for _, pe := range p.Out(u) {
		if w, ok := assign[pe.To]; ok {
			if !hasEdge(g, v, w, pe.Label) {
				return false
			}
		}
	}
	for _, pe := range p.In(u) {
		if w, ok := assign[pe.To]; ok {
			if !hasEdge(g, w, v, pe.Label) {
				return false
			}
		}
	}
	return true
}

func hasEdge(g *graph.Graph, from, to graph.ID, label string) bool {
	for _, e := range g.Out(from) {
		if e.To == to && (label == "" || label == e.Label) {
			return true
		}
	}
	return false
}
