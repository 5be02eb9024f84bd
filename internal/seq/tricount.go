package seq

import "grape/internal/graph"

// Triangles counts the triangles of g's undirected view: unordered vertex
// triples pairwise joined by an edge in either direction. Self-loops,
// parallel and reciprocal edges add none.
func Triangles(g *graph.Graph) int64 {
	var total int64
	TrianglesAt(g, g.SortedIndices(), func(_ int32, n int64) { total += n })
	return total
}

// TrianglesAt is the forward (ID-oriented) triangle count over graph g's
// larger-ID neighbor lists (graph.UpCSR). For each vertex v at a
// dense index in pivots it stamps up(v), then counts the stamped entries of
// up(a) for every a in up(v): each triangle is counted once, at its
// smallest-ID vertex. It calls at(v, n) for every pivot v with n > 0
// triangles, and returns the up-list entries it read (its work). Order is by
// ID, never by dense position, so a graph whose dense order does not ascend
// by ID counts the same.
func TrianglesAt(g *graph.Graph, pivots []int32, at func(v int32, n int64)) (scans int64) {
	off, adj := g.UpCSR()
	stamp := make([]int32, g.NumVertices()) // stamp[x] == v+1: x is in up(v)
	for _, v := range pivots {
		up := adj[off[v]:off[v+1]]
		for _, a := range up {
			stamp[a] = v + 1
		}
		var n int64
		for _, a := range up {
			for _, b := range adj[off[a]:off[a+1]] {
				if stamp[b] == v+1 {
					n++
				}
			}
			scans += int64(off[a+1] - off[a])
		}
		scans += int64(len(up))
		if n > 0 {
			at(v, n)
		}
	}
	return scans
}
