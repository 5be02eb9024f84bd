package seq

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

func TestDenseUnionFindGrow(t *testing.T) {
	u := NewDenseUnionFind(2)
	u.Union(0, 1)
	u.Grow(5)
	if u.Find(4) != 4 {
		t.Fatal("grown element not a singleton")
	}
	u.Union(4, 0)
	if u.Find(4) != u.Find(1) {
		t.Fatal("union across grown boundary broken")
	}
}

// rebuilt builds the directed graph g again from nothing with a Builder: its
// vertices in dense order, then each vertex's out-edges.
func rebuilt(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	for i, id := range g.Vertices() {
		b.AddVertex(id, g.LabelAt(int32(i)))
	}
	for _, u := range g.Vertices() {
		for _, e := range g.Out(u) {
			b.AddLabeledEdge(u, e.To, e.W, e.Label)
		}
	}
	return b.Graph()
}

// TestRelaxIdxMatchesRelax: the dense and sparse relaxations produce
// identical distances and identical work, the sparse one on the graph rebuilt
// by a Builder.
func TestRelaxIdxMatchesRelax(t *testing.T) {
	g := gen.ConnectedRandom(300, 900, 7)
	th := rebuilt(g)

	sparse := map[graph.ID]float64{0: 0}
	getS := func(id graph.ID) float64 {
		if d, ok := sparse[id]; ok {
			return d
		}
		return Inf
	}
	workS := Relax(th, []graph.ID{0}, getS, func(id graph.ID, d float64) { sparse[id] = d })

	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	si, _ := g.Index(0)
	dist[si] = 0
	workD := RelaxIdx(g, false, []int32{si},
		func(i int32) float64 { return dist[i] },
		func(i int32, d float64) { dist[i] = d })

	if workS != workD {
		t.Fatalf("work differs: sparse %d dense %d", workS, workD)
	}
	for i, d := range dist {
		id := g.IDAt(int32(i))
		sd, ok := sparse[id]
		if d >= Inf {
			if ok {
				t.Fatalf("vertex %d: dense unreached, sparse %g", id, sd)
			}
			continue
		}
		if !ok || sd != d {
			t.Fatalf("vertex %d: dense %g sparse %g (ok=%v)", id, d, sd, ok)
		}
	}

	// Dijkstra agrees on the rebuilt graph.
	df := Dijkstra(g, 0)
	dm := Dijkstra(th, 0)
	if len(df) != len(dm) {
		t.Fatalf("dijkstra result sizes differ: %d vs %d", len(df), len(dm))
	}
	for id, d := range dm {
		if df[id] != d {
			t.Fatalf("dijkstra disagrees at %d: %g vs %g", id, df[id], d)
		}
	}
}

// TestComponentsFrozenMatchesThawed: same labels on a generator's graph and
// on the graph rebuilt by a Builder.
func TestComponentsFrozenMatchesThawed(t *testing.T) {
	g := gen.Random(200, 260, 11) // likely several components
	th := rebuilt(g)
	cf := Components(g)
	cm := Components(th)
	if len(cf) != len(cm) {
		t.Fatalf("sizes differ: %d vs %d", len(cf), len(cm))
	}
	for v, l := range cm {
		if cf[v] != l {
			t.Fatalf("label of %d differs: %d vs %d", v, cf[v], l)
		}
	}
}

// BenchmarkRelax isolates the CSR win in the single hottest kernel from all
// engine machinery: full-graph Dijkstra relaxation, addressed by ID vs by
// dense index.
func BenchmarkRelax(b *testing.B) {
	g := gen.RoadGrid(96, 96, 1)
	th := g
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		nv := th.NumVertices()
		dist := make([]float64, nv)
		get := func(id graph.ID) float64 { i, _ := th.Index(id); return dist[i] }
		set := func(id graph.ID, d float64) { i, _ := th.Index(id); dist[i] = d }
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			for i := range dist {
				dist[i] = Inf
			}
			i0, _ := th.Index(0)
			dist[i0] = 0
			Relax(th, []graph.ID{0}, get, set)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		nv := g.NumVertices()
		dist := make([]float64, nv)
		get := func(i int32) float64 { return dist[i] }
		set := func(i int32, d float64) { dist[i] = d }
		i0, _ := g.Index(0)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			for i := range dist {
				dist[i] = Inf
			}
			dist[i0] = 0
			RelaxIdx(g, false, []int32{i0}, get, set)
		}
	})
}

// manySeeds is keyword's IncEval shape: the reverse relaxation over a
// unit-weight social graph from about 2,000 seeds lowered to distances 0–3,
// so the queue holds thousands of entries at a handful of distances. It
// returns the seeds and a function that resets dist to them.
func manySeeds(g *graph.Graph, dist []float64) ([]int32, func()) {
	rng := rand.New(rand.NewSource(1))
	seeds := make([]int32, 2000)
	at := make([]float64, len(seeds))
	for i := range seeds {
		seeds[i] = int32(rng.Intn(g.NumVertices()))
		at[i] = float64(rng.Intn(4))
	}
	return seeds, func() {
		for i := range dist {
			dist[i] = Inf
		}
		for i, s := range seeds {
			dist[s] = min(dist[s], at[i])
		}
	}
}

// BenchmarkRelaxManySeeds times one many-seed reverse relaxation, the shape
// of keyword's IncEval, where a binary heap paid log n per seed: "col" is
// RelaxCol on column 1 of an n×2 array, marking the rows it lowers, as
// keyword runs it; "idx" is RelaxIdx through get/set callbacks.
func BenchmarkRelaxManySeeds(b *testing.B) {
	g := gen.PreferentialAttachment(10000, 5, 1)
	b.Run("col", func(b *testing.B) {
		run := manySeedsCol(g, 2, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			run()
		}
	})
	b.Run("idx", func(b *testing.B) {
		dist := make([]float64, g.NumVertices())
		get := func(i int32) float64 { return dist[i] }
		set := func(i int32, d float64) { dist[i] = d }
		seeds, reset := manySeeds(g, dist)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			reset()
			RelaxIdx(g, true, seeds, get, set)
		}
	})
}

// TestRelaxIdxAllocatesNothing: once its pooled queue has grown, a
// relaxation allocates nothing.
func TestRelaxIdxAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	g := gen.PreferentialAttachment(10000, 5, 1)
	dist := make([]float64, g.NumVertices())
	get := func(i int32) float64 { return dist[i] }
	set := func(i int32, d float64) { dist[i] = d }
	seeds, reset := manySeeds(g, dist)
	run := func() {
		reset()
		RelaxIdx(g, true, seeds, get, set)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warmed RelaxIdx allocated %.1f objects per run, want 0", allocs)
	}
}
