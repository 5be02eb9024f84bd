package graph

// BFS runs a breadth-first traversal from src over out-edges, invoking visit
// with each reached vertex and its hop distance. If visit returns false the
// traversal stops. An absent src reaches only itself.
func (g *Graph) BFS(src ID, visit func(id ID, depth int) bool) {
	s, ok := g.Index(src)
	if !ok {
		visit(src, 0)
		return
	}
	seen := make([]bool, len(g.ids))
	seen[s] = true
	frontier := []int32{s}
	depth := 0
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			if !visit(g.ids[u], depth) {
				return
			}
			for _, e := range g.OutAt(u) {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
		depth++
	}
}

// UndirectedNeighborhood returns the dense indices of the vertices within d
// hops of the seeds (dense indices), following both edge directions and
// including the seeds themselves, in ascending dense order.
func (g *Graph) UndirectedNeighborhood(seeds []int32, d int) []int32 {
	visited := make([]bool, len(g.ids))
	frontier := make([]int32, 0, len(seeds))
	n := 0
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, s)
			n++
		}
	}
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []int32
		for _, u := range frontier {
			for _, es := range [2][]DenseEdge{g.OutAt(u), g.InAt(u)} {
				for _, e := range es {
					if !visited[e.To] {
						visited[e.To] = true
						next = append(next, e.To)
						n++
					}
				}
			}
		}
		frontier = next
	}
	region := make([]int32, 0, n)
	for i, ok := range visited {
		if ok {
			region = append(region, int32(i))
		}
	}
	return region
}

// Diameter returns the hop eccentricity of src: the maximum BFS depth reached
// from src. It is a cheap lower bound on graph diameter used by tests and the
// dataset report in cmd/grape-gen.
func (g *Graph) Diameter(src ID) int {
	max := 0
	g.BFS(src, func(_ ID, depth int) bool {
		if depth > max {
			max = depth
		}
		return true
	})
	return max
}

// EachTriangle calls visit(a, b, c) once for every triangle of g's undirected
// view — three vertices pairwise joined by an edge in either direction, by
// dense index, ascending by ID — with the forward walk seq.TrianglesAt makes:
// up(a) stamped, up(b) scanned for every b in up(a). The larger-ID neighbor
// lists are derived for the call and dropped after it; UpCSR keeps its own.
func (g *Graph) EachTriangle(visit func(a, b, c int32)) {
	off, adj := upCSR(g)
	stamp := make([]int32, len(g.ids)) // stamp[x] == a+1: x is in up(a)
	for a := range int32(len(g.ids)) {
		up := adj[off[a]:off[a+1]]
		for _, b := range up {
			stamp[b] = a + 1
		}
		for _, b := range up {
			for _, c := range adj[off[b]:off[b+1]] {
				if stamp[c] == a+1 {
					visit(a, b, c)
				}
			}
		}
	}
}
