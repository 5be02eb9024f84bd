package seq

import (
	"testing"
	"testing/quick"

	"grape/internal/graph"
)

// TestUnionFindEquivalenceProperty checks DenseUnionFind against a
// naive transitive-closure model over random union sequences: two elements
// share a representative iff they are connected in the model.
func TestUnionFindEquivalenceProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		const n = 24
		uf := NewDenseUnionFind(n)
		// naive model: adjacency + BFS connectivity
		adj := make([][]int, n)
		for _, p := range pairs {
			a, b := int(p>>4)%n, int(p&0xf)%n
			uf.Union(int32(a), int32(b))
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		connected := func(a, b int) bool {
			seen := make([]bool, n)
			queue := []int{a}
			seen[a] = true
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				if x == b {
					return true
				}
				for _, y := range adj[x] {
					if !seen[y] {
						seen[y] = true
						queue = append(queue, y)
					}
				}
			}
			return false
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				same := uf.Find(int32(a)) == uf.Find(int32(b))
				if same != connected(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRelaxIdempotentProperty: running Relax a second time from the same
// seeds changes nothing — the fixpoint property bounded IncEval relies on.
func TestRelaxIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(uint(seed)%40)
		g := testGraph(n, seed)
		dist := map[graph.ID]float64{0: 0}
		get := func(id graph.ID) float64 {
			if d, ok := dist[id]; ok {
				return d
			}
			return Inf
		}
		set := func(id graph.ID, d float64) { dist[id] = d }
		Relax(g, []graph.ID{0}, get, set)
		before := make(map[graph.ID]float64, len(dist))
		for k, v := range dist {
			before[k] = v
		}
		seeds := make([]graph.ID, 0, len(dist))
		for k := range dist {
			seeds = append(seeds, k)
		}
		Relax(g, seeds, get, set)
		if len(dist) != len(before) {
			return false
		}
		for k, v := range before {
			if dist[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// testGraph builds a small deterministic graph without importing gen
// (which would be an import cycle: gen's tests use seq).
func testGraph(n int, seed int64) *graph.Graph {
	g := graph.New()
	x := uint64(seed)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < n; i++ {
		g.AddVertex(graph.ID(i), "")
	}
	for i := 0; i < 3*n; i++ {
		u := graph.ID(next() % uint64(n))
		v := graph.ID(next() % uint64(n))
		if u != v {
			g.AddEdge(u, v, float64(next()%9)+1)
		}
	}
	return g
}
