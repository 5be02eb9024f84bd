package seq

import (
	"math"
	"testing"
	"testing/quick"

	"grape/internal/gen"
	"grape/internal/graph"
)

func TestDijkstraSmall(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1, 4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 1, 2)
	g.AddEdge(1, 3, 1)
	d := Dijkstra(g, 0)
	want := map[graph.ID]float64{0: 0, 1: 3, 2: 1, 3: 4}
	for v, dv := range want {
		if d[v] != dv {
			t.Fatalf("vertex %d: want %g got %g", v, dv, d[v])
		}
	}
}

func TestDijkstraEqualsBellmanFordProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint(seed)%60)
		g := gen.Random(n, 3*n, seed)
		src := graph.ID(int(uint(seed) % uint(n)))
		a := Dijkstra(g, src)
		b := oracleBellmanFord(g, src)
		if len(a) != len(b) {
			return false
		}
		for v, d := range a {
			if math.Abs(b[v]-d) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraMissingSource(t *testing.T) {
	g := gen.Random(10, 20, 1)
	if d := Dijkstra(g, 999); len(d) != 0 {
		t.Fatalf("missing source should reach nothing: %v", d)
	}
}

func TestRelaxIsIncremental(t *testing.T) {
	// Lowering one entry and relaxing only from it must equal recomputing
	// from scratch — the Ramalingam-Reps decrease-only property.
	g := gen.ConnectedRandom(200, 600, 13)
	dist := map[graph.ID]float64{}
	get := func(id graph.ID) float64 {
		if d, ok := dist[id]; ok {
			return d
		}
		return Inf
	}
	set := func(id graph.ID, d float64) { dist[id] = d }
	dist[0] = 0
	Relax(g, []graph.ID{0}, get, set)

	// introduce an external decrease at some vertex (as a border message
	// would) and relax incrementally
	var target graph.ID = 77
	if dist[target] <= 1 {
		t.Skip("unlucky seed")
	}
	dist[target] = 1
	Relax(g, []graph.ID{target}, get, set)

	// ground truth: a virtual source connected to 0 (weight 0) and target
	// (weight 1)
	g2 := g.Clone()
	g2.AddEdge(10000, 0, 0)
	g2.AddEdge(10000, target, 1)
	want := Dijkstra(g2, 10000)
	for v, d := range want {
		if v == 10000 {
			continue
		}
		if math.Abs(dist[v]-d) > 1e-9 {
			t.Fatalf("vertex %d: incremental %g vs recompute %g", v, dist[v], d)
		}
	}
}

func TestRelaxWorkIsBounded(t *testing.T) {
	// A tiny decrease in a far corner must not re-scan the whole graph.
	g := gen.RoadGrid(40, 40, 3)
	dist := map[graph.ID]float64{}
	get := func(id graph.ID) float64 {
		if d, ok := dist[id]; ok {
			return d
		}
		return Inf
	}
	set := func(id graph.ID, d float64) { dist[id] = d }
	dist[0] = 0
	fullWork := Relax(g, []graph.ID{0}, get, set)

	corner := graph.ID(40*40 - 1)
	dist[corner] -= 0.5 // small local improvement
	incWork := Relax(g, []graph.ID{corner}, get, set)
	if incWork*10 > fullWork {
		t.Fatalf("incremental relax not bounded: %d vs full %d", incWork, fullWork)
	}
}

func TestComponentsSmall(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddVertex(5, "")
	c := Components(g)
	if c[1] != 1 || c[2] != 1 || c[3] != 3 || c[4] != 3 || c[5] != 5 {
		t.Fatalf("components wrong: %v", c)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewDenseUnionFind(5)
	if !uf.Union(1, 2) || !uf.Union(3, 4) {
		t.Fatal("fresh unions must merge")
	}
	if uf.Union(2, 1) {
		t.Fatal("repeated union must report no-op")
	}
	if uf.Find(1) != uf.Find(2) || uf.Find(1) == uf.Find(3) {
		t.Fatal("find inconsistent")
	}
	uf.Union(2, 3)
	if uf.Find(4) != uf.Find(1) {
		t.Fatal("transitive union broken")
	}
}

func TestSimSmall(t *testing.T) {
	// pattern: a -> b. data: a1 -> b1, a2 (no successor), b2 isolated.
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddEdge(0, 1, 1)
	g := graph.New()
	g.AddVertex(10, "a")
	g.AddVertex(11, "b")
	g.AddVertex(12, "a")
	g.AddVertex(13, "b")
	g.AddEdge(10, 11, 1)
	sim := Sim(p, g)
	if len(sim[0]) != 1 || sim[0][0] != 10 {
		t.Fatalf("sim(a) wrong: %v", sim[0])
	}
	if len(sim[1]) != 2 {
		t.Fatalf("sim(b) should keep both b vertices: %v", sim[1])
	}
}

func TestSimRespectsEdgeLabels(t *testing.T) {
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddLabeledEdge(0, 1, 1, "likes")
	g := graph.New()
	g.AddVertex(10, "a")
	g.AddVertex(11, "b")
	g.AddLabeledEdge(10, 11, 1, "hates")
	sim := Sim(p, g)
	if len(sim[0]) != 0 {
		t.Fatalf("label mismatch should empty sim(a): %v", sim[0])
	}
}

func TestSimulationContainsIsomorphism(t *testing.T) {
	// Classic relationship: every vertex used by some embedding simulates
	// its pattern vertex.
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 150, Products: 8, Follows: 3, AdoptP: 0.5, Seed: 11})
	p := graph.New()
	p.AddVertex(0, gen.LabelPerson)
	p.AddVertex(1, gen.LabelProduct)
	p.AddLabeledEdge(0, 1, 1, gen.EdgeRecommend)
	sim := Sim(p, g)
	inSim := map[graph.ID]map[graph.ID]bool{}
	for u, vs := range sim {
		inSim[u] = map[graph.ID]bool{}
		for _, v := range vs {
			inSim[u][v] = true
		}
	}
	matches, _ := SubIso(p, g, SubIsoOptions{})
	for _, m := range matches {
		for u, v := range m {
			if !inSim[u][v] {
				t.Fatalf("embedding image %d of pattern %d missing from simulation", v, u)
			}
		}
	}
}

func TestSubIsoInjective(t *testing.T) {
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "a")
	p.AddEdge(0, 1, 1)
	g := graph.New()
	g.AddVertex(10, "a")
	g.AddEdge(10, 10, 1) // self-loop must not match u0 != u1 injectively
	ms, _ := SubIso(p, g, SubIsoOptions{})
	if len(ms) != 0 {
		t.Fatalf("injective matching violated: %v", ms)
	}
}

func TestSubIsoDirectionality(t *testing.T) {
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddEdge(0, 1, 1)
	g := graph.New()
	g.AddVertex(10, "a")
	g.AddVertex(11, "b")
	g.AddEdge(11, 10, 1) // reversed
	ms, _ := SubIso(p, g, SubIsoOptions{})
	if len(ms) != 0 {
		t.Fatalf("edge direction ignored: %v", ms)
	}
}

func TestPatternRadius(t *testing.T) {
	p := graph.New()
	p.AddVertex(0, "")
	p.AddVertex(1, "")
	p.AddVertex(2, "")
	p.AddEdge(0, 1, 1)
	p.AddEdge(1, 2, 1)
	if r := PatternRadius(p, 1); r != 1 {
		t.Fatalf("radius from middle should be 1, got %d", r)
	}
	if r := PatternRadius(p, 0); r != 2 {
		t.Fatalf("radius from end should be 2, got %d", r)
	}
	if r := PatternRadius(p, 99); r != 0 {
		t.Fatalf("missing anchor should be 0, got %d", r)
	}
}

func TestKeywordSearchSmall(t *testing.T) {
	g := graph.New()
	// 0 -> 1 -> 2; keywords: "x" at 2, "y" at 1
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddVertex(2, "")
	g.SetProps(2, []string{"x"})
	g.SetProps(1, []string{"y"})
	ms := KeywordSearch(g, []string{"x", "y"}, 2)
	// roots reaching both within 2: 0 (y at 1, x at 2), 1 (y at 0, x at 1)
	if len(ms) != 2 {
		t.Fatalf("want 2 roots, got %v", ms)
	}
	if ms[0].Root != 1 { // score 1 beats score 3
		t.Fatalf("ranking wrong: %v", ms)
	}
}

func TestKeywordDistancesUnreachable(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddVertex(2, "")
	g.SetProps(2, []string{"w"})
	g.Freeze()
	dist := make([]float64, g.NumVertices())
	keywordDist(g, "w", dist, 1, 0)
	at := func(v graph.ID) float64 { i, _ := g.Index(v); return dist[i] }
	if at(0) != Inf {
		t.Fatal("0 cannot reach the keyword holder")
	}
	if at(2) != 0 {
		t.Fatal("holder must be at distance 0")
	}
}

func TestCFTrainingReducesRMSE(t *testing.T) {
	g := gen.Ratings(gen.RatingsConfig{Users: 80, Items: 20, RatingsPerUser: 10, Factors: 3, Noise: 0.05, Seed: 4})
	users := UsersOf(g)
	cfg := DefaultCFConfig()
	f0 := oracleInitFactors(g, cfg)
	before := oracleRMSE(g, users, f0)
	_, after := TrainCF(g, users, cfg)
	if after >= before {
		t.Fatalf("training should reduce RMSE: %.3f -> %.3f", before, after)
	}
	if after > 1.2 {
		t.Fatalf("planted data should fit well, got %.3f", after)
	}
}
