package seq

import "grape/internal/graph"

// Components labels every vertex of g with the smallest vertex ID in its
// weakly connected component (edge direction is ignored), the canonical
// sequential CC algorithm via union-find with path compression, over dense
// indices in flat arrays.
func Components(g *graph.Graph) map[graph.ID]graph.ID {
	nv := g.NumVertices()
	uf := NewDenseUnionFind(nv)
	for i := int32(0); i < int32(nv); i++ {
		for _, e := range g.OutAt(i) {
			uf.Union(i, e.To)
		}
	}
	min := make([]graph.ID, nv)
	for i := range min {
		min[i] = graph.NoID
	}
	for i := int32(0); i < int32(nv); i++ {
		r := uf.Find(i)
		if v := g.IDAt(i); min[r] == graph.NoID || v < min[r] {
			min[r] = v
		}
	}
	out := make(map[graph.ID]graph.ID, nv)
	for i := int32(0); i < int32(nv); i++ {
		out[g.IDAt(i)] = min[uf.Find(i)]
	}
	return out
}

// DenseUnionFind is a disjoint-set forest over dense vertex indices in flat
// parent/size arrays, with union by size and path compression.
type DenseUnionFind struct {
	parent []int32
	size   []int32
}

// NewDenseUnionFind returns a forest of n singletons {0, …, n-1}.
func NewDenseUnionFind(n int) *DenseUnionFind {
	u := &DenseUnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Grow extends the forest with singletons up to n elements; existing sets
// are untouched. The session layer calls it when graph updates append
// vertices to a fragment.
func (u *DenseUnionFind) Grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, int32(len(u.parent)))
		u.size = append(u.size, 1)
	}
}

// Find returns the representative of v's set.
func (u *DenseUnionFind) Find(v int32) int32 {
	root := v
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[v] != root { // path compression
		v, u.parent[v] = u.parent[v], root
	}
	return root
}

// Union merges the sets of a and b and reports whether they were distinct.
func (u *DenseUnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}
