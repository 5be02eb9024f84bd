package seq

import (
	"cmp"
	"slices"

	"grape/internal/graph"
)

// HasKeyword reports whether vertex id of g carries keyword w among its
// properties.
func HasKeyword(g *graph.Graph, id graph.ID, w string) bool {
	return slices.Contains(g.Props(id), w)
}

// keywordDist returns, by dense vertex index of the frozen graph g, the
// weighted distance from every vertex to the nearest vertex carrying w
// following out-edges (0 if it carries w itself, Inf if none is reachable).
// It relaxes along in-edges from the holders — the textbook multi-source
// Dijkstra on the reversed graph, over the CSR form.
func keywordDist(g *graph.Graph, w string) []float64 {
	dist := make([]float64, g.NumVertices())
	var seeds []int32
	for i := range dist {
		dist[i] = Inf
		if slices.Contains(g.PropsAt(int32(i)), w) {
			dist[i] = 0
			seeds = append(seeds, int32(i))
		}
	}
	RelaxIdx(g, true, seeds,
		func(i int32) float64 { return dist[i] },
		func(i int32, d float64) { dist[i] = d })
	return dist
}

// frozen returns g in CSR form: g itself when already frozen, else a frozen
// private copy (dense indices and IDs survive).
func frozen(g *graph.Graph) *graph.Graph {
	if g.Frozen() {
		return g
	}
	return g.Clone().Freeze()
}

// KeywordDistances computes, for each keyword, the weighted distance from
// every vertex v to the nearest vertex carrying that keyword following
// out-edges (dist 0 if v itself carries it). Unreachable pairs are absent.
func KeywordDistances(g *graph.Graph, keywords []string) map[string]map[graph.ID]float64 {
	g = frozen(g)
	out := make(map[string]map[graph.ID]float64, len(keywords))
	for _, w := range keywords {
		dist := map[graph.ID]float64{}
		for i, d := range keywordDist(g, w) {
			if d < Inf {
				dist[g.IDAt(int32(i))] = d
			}
		}
		out[w] = dist
	}
	return out
}

// KeywordMatch is one keyword-search answer: a root vertex that reaches a
// holder of every query keyword within the distance bound, with the distance
// per keyword.
type KeywordMatch struct {
	Root  graph.ID
	Dists []float64 // parallel to the query's keyword list
	Score float64   // sum of distances; lower is better
}

// KeywordSearch returns the roots from which every keyword in the query is
// reachable within bound, ranked by total distance — the demo's Keyword
// query class.
func KeywordSearch(g *graph.Graph, keywords []string, bound float64) []KeywordMatch {
	g = frozen(g)
	dists := make([][]float64, len(keywords))
	for k, w := range keywords {
		dists[k] = keywordDist(g, w)
	}
	var out []KeywordMatch
roots:
	for i, v := range g.Vertices() {
		for k := range keywords {
			if d := dists[k][i]; d == Inf || d > bound {
				continue roots
			}
		}
		m := KeywordMatch{Root: v, Dists: make([]float64, len(keywords))}
		for k := range keywords {
			m.Dists[k] = dists[k][i]
			m.Score += dists[k][i]
		}
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b KeywordMatch) int {
		if c := cmp.Compare(a.Score, b.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Root, b.Root)
	})
	return out
}
