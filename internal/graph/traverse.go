package graph

// BFS runs a breadth-first traversal from src over out-edges, invoking visit
// with each reached vertex and its hop distance. If visit returns false the
// traversal stops. src must exist.
func (g *Graph) BFS(src ID, visit func(id ID, depth int) bool) {
	seen := map[ID]bool{src: true}
	frontier := []ID{src}
	depth := 0
	for len(frontier) > 0 {
		var next []ID
		for _, u := range frontier {
			if !visit(u, depth) {
				return
			}
			for _, e := range g.Out(u) {
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

// Neighborhood returns the set of vertices within d hops of each seed
// (following out-edges), including the seeds themselves.
func (g *Graph) Neighborhood(seeds []ID, d int) map[ID]bool {
	return g.neighborhood(seeds, d, false)
}

// UndirectedNeighborhood is Neighborhood following both edge directions.
func (g *Graph) UndirectedNeighborhood(seeds []ID, d int) map[ID]bool {
	return g.neighborhood(seeds, d, true)
}

// neighborhood is shared by Neighborhood and UndirectedNeighborhood: the BFS
// runs over dense indices with a flat visited array, hashing only to resolve
// the seeds and build the result set.
func (g *Graph) neighborhood(seeds []ID, d int, undirected bool) map[ID]bool {
	visited := make([]bool, len(g.ids))
	frontier := make([]int32, 0, len(seeds))
	n := 0
	for _, s := range seeds {
		if i, ok := g.Index(s); ok && !visited[i] {
			visited[i] = true
			frontier = append(frontier, i)
			n++
		}
	}
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []int32
		for _, u := range frontier {
			sides := [2][]DenseEdge{g.OutAt(u)}
			if undirected {
				sides[1] = g.InAt(u)
			}
			for _, es := range sides {
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
	seen := make(map[ID]bool, n)
	for i, ok := range visited {
		if ok {
			seen[g.ids[i]] = true
		}
	}
	return seen
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
