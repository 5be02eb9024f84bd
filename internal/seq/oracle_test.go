package seq

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// The map formulations below are the oracles of the dense kernels: they share
// no code with Sim, TrainCF or Components, and address every vertex by ID.

// oracleSim is graph simulation as a map-of-maps refinement to fixpoint.
func oracleSim(p, g *graph.Graph) map[graph.ID][]graph.ID {
	sim := make(map[graph.ID]map[graph.ID]bool)
	for _, u := range p.Vertices() {
		cand := make(map[graph.ID]bool)
		for _, v := range g.Vertices() {
			if g.Label(v) == p.Label(u) {
				cand[v] = true
			}
		}
		sim[u] = cand
	}
	for changed := true; changed; {
		changed = false
		for _, u := range p.Vertices() {
			for v := range sim[u] {
				if !oracleSimOK(p, g, sim, u, v) {
					delete(sim[u], v)
					changed = true
				}
			}
		}
	}
	out := make(map[graph.ID][]graph.ID, len(sim))
	for u, set := range sim {
		vs := make([]graph.ID, 0, len(set))
		for v := range set {
			vs = append(vs, v)
		}
		slices.Sort(vs)
		out[u] = vs
	}
	return out
}

func oracleSimOK(p, g *graph.Graph, sim map[graph.ID]map[graph.ID]bool, u, v graph.ID) bool {
	for _, pe := range p.Out(u) {
		found := false
		for _, ge := range g.Out(v) {
			if (pe.Label == "" || pe.Label == ge.Label) && sim[pe.To][ge.To] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// oracleComponents labels each vertex with the first ID, in ascending order,
// from which a breadth-first search ignoring edge direction reaches it.
func oracleComponents(g *graph.Graph) map[graph.ID]graph.ID {
	adj := map[graph.ID][]graph.ID{}
	for _, u := range g.Vertices() {
		for _, e := range g.Out(u) {
			adj[u] = append(adj[u], e.To)
			adj[e.To] = append(adj[e.To], u)
		}
	}
	label := map[graph.ID]graph.ID{}
	for _, root := range g.SortedVertices() {
		if _, ok := label[root]; ok {
			continue
		}
		label[root] = root
		for queue := []graph.ID{root}; len(queue) > 0; queue = queue[1:] {
			for _, v := range adj[queue[0]] {
				if _, ok := label[v]; !ok {
					label[v] = root
					queue = append(queue, v)
				}
			}
		}
	}
	return label
}

// oracleInitFactors draws every vertex's initial vector, in ascending ID
// order, from one RNG seeded with cfg.Seed.
func oracleInitFactors(g *graph.Graph, cfg CFConfig) Factors {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := make(Factors, g.NumVertices())
	for _, v := range g.SortedVertices() {
		vec := make([]float64, cfg.Factors)
		for i := range vec {
			vec[i] = rng.Float64() * 0.1
		}
		f[v] = vec
	}
	return f
}

// oracleSGDEpoch is one SGD pass over the ratings out of users, factors
// looked up by ID; it returns the squared-error sum and the rating count.
func oracleSGDEpoch(g *graph.Graph, users []graph.ID, f Factors, cfg CFConfig) (float64, int) {
	var sqErr float64
	count := 0
	for _, u := range users {
		pu := f[u]
		for _, e := range g.Out(u) {
			qi := f[e.To]
			if qi == nil || pu == nil {
				continue
			}
			err := e.W - oracleDot(pu, qi)
			for k := range pu {
				du := cfg.LR * (err*qi[k] - cfg.Reg*pu[k])
				di := cfg.LR * (err*pu[k] - cfg.Reg*qi[k])
				pu[k] += du
				qi[k] += di
			}
			sqErr += err * err
			count++
		}
	}
	return sqErr, count
}

func oracleTrainCF(g *graph.Graph, users []graph.ID, cfg CFConfig) (Factors, float64) {
	f := oracleInitFactors(g, cfg)
	var rmse float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		if sq, n := oracleSGDEpoch(g, users, f, cfg); n > 0 {
			rmse = math.Sqrt(sq / float64(n))
		}
	}
	return f, rmse
}

// oracleRMSE evaluates factors against all rating edges out of users.
func oracleRMSE(g *graph.Graph, users []graph.ID, f Factors) float64 {
	var sq float64
	n := 0
	for _, u := range users {
		pu := f[u]
		if pu == nil {
			continue
		}
		for _, e := range g.Out(u) {
			if qi := f[e.To]; qi != nil {
				d := e.W - oracleDot(pu, qi)
				sq += d * d
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sq / float64(n))
}

func oracleDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// randomLabelled is a graph on n vertices with IDs spread out, vertex
// labels from {a, b, c, ""} and edge labels from {"", x, y}, self-loops and
// repeated edges included.
func randomLabelled(rng *rand.Rand, n int, directed bool) *graph.Graph {
	g := graph.NewBuilder()
	if !directed {
		g = graph.NewUndirectedBuilder()
	}
	vlabels := []string{"a", "b", "c", ""}
	elabels := []string{"", "x", "y"}
	ids := make([]graph.ID, n)
	for i := range ids {
		ids[i] = graph.ID(3*i + rng.Intn(3))
		g.AddVertex(ids[i], vlabels[rng.Intn(len(vlabels))])
	}
	for range rng.Intn(3*n + 1) {
		u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if rng.Intn(8) == 0 {
			v = u
		}
		g.AddLabeledEdge(u, v, 1, elabels[rng.Intn(len(elabels))])
	}
	return g.Graph()
}

// randomPattern is a pattern on n vertices whose labels include "z" and
// edge labels "w", which no data graph carries.
func randomPattern(rng *rand.Rand, n int) *graph.Graph {
	p := graph.New()
	vlabels := []string{"a", "b", "c", "", "z"}
	elabels := []string{"", "", "x", "y", "w"}
	for i := 0; i < n; i++ {
		p.AddVertex(graph.ID(10-i), vlabels[rng.Intn(len(vlabels))]) // descending: bit order is not ID order
	}
	for range rng.Intn(2*n + 1) {
		u, v := graph.ID(10-rng.Intn(n)), graph.ID(10-rng.Intn(n))
		p.AddLabeledEdge(u, v, 1, elabels[rng.Intn(len(elabels))])
	}
	return p
}

// TestSimMatchesOracle holds Sim to the map-of-maps refinement on random
// labelled graphs, directed and undirected: the same
// sets, and the same shape (an entry per pattern vertex, empty when nothing
// simulates it).
func TestSimMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 300 {
		g := randomLabelled(rng, 1+rng.Intn(40), trial%4 != 0)
		p := randomPattern(rng, 1+rng.Intn(5))
		want := oracleSim(p, g)
		if got := Sim(p, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Sim %v, oracle %v", trial, got, want)
		}
	}
}

// TestComponentsMatchesOracle holds Components to breadth-first search on
// random graphs, directed and undirected.
func TestComponentsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 200 {
		g := randomLabelled(rng, 1+rng.Intn(60), trial%2 == 0)
		want := oracleComponents(g)
		if got := Components(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Components %v, oracle %v", trial, got, want)
		}
	}
}

// TestSimPatternPast64Panics: the masks hold 64 pattern vertices, so a larger
// pattern must fail loudly, never answer with the first 64.
func TestSimPatternPast64Panics(t *testing.T) {
	p := graph.New()
	for i := range 65 {
		p.AddVertex(graph.ID(i), "a")
	}
	g := graph.New()
	g.AddVertex(1, "a")
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "max 64") {
			t.Fatalf("Sim on a 65-vertex pattern: recovered %v, want a panic naming the bound", r)
		}
	}()
	Sim(p, g)
}

// TestTrainCFMatchesOracle holds TrainCF to the map formulation bit for bit:
// every vertex's factors and the RMSE, on a ratings graph with and without a
// user absent from it, and on a random graph whose every vertex rates (self-loops alias the user
// and item vectors), with a user absent from the graph.
func TestTrainCFMatchesOracle(t *testing.T) {
	cfg := DefaultCFConfig()
	ratings := gen.Ratings(gen.RatingsConfig{Users: 60, Items: 15, RatingsPerUser: 8, Factors: 3, Noise: 0.1, Seed: 2})
	random := randomLabelled(rand.New(rand.NewSource(3)), 50, true)
	random.AddEdge(random.Vertices()[0], random.Vertices()[0], 2)
	cases := []struct {
		name  string
		g     *graph.Graph
		users []graph.ID
	}{
		{"ratings", ratings, UsersOf(ratings)},
		{"ratings-absent-user", ratings, append(UsersOf(ratings), 1<<40)},
		{"random", random, append(random.SortedVertices(), 1<<40)},
	}
	for _, c := range cases {
		for _, k := range []int{1, 3, 8} {
			cfg.Factors, cfg.Seed = k, int64(k)
			got, rmse := TrainCF(c.g, c.users, cfg)
			want, wantRMSE := oracleTrainCF(c.g, c.users, cfg)
			if math.Float64bits(rmse) != math.Float64bits(wantRMSE) {
				t.Fatalf("%s k=%d: RMSE %v, oracle %v", c.name, k, rmse, wantRMSE)
			}
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d vectors, oracle %d", c.name, k, len(got), len(want))
			}
			for v, w := range want {
				if len(got[v]) != len(w) {
					t.Fatalf("%s k=%d: vertex %d has %d factors, oracle %d", c.name, k, v, len(got[v]), len(w))
				}
				for i := range w {
					if math.Float64bits(got[v][i]) != math.Float64bits(w[i]) {
						t.Fatalf("%s k=%d: vertex %d factor %d is %v, oracle %v", c.name, k, v, i, got[v][i], w[i])
					}
				}
			}
		}
	}
}

// oracleBellmanFord computes the same distances as Dijkstra by |V|-1 rounds
// of full-edge relaxation, by ID, sharing no CSR walk with the kernel it
// checks.
func oracleBellmanFord(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	dist := map[graph.ID]float64{}
	if !g.Has(src) {
		return dist
	}
	dist[src] = 0
	n := g.NumVertices()
	for round := 0; round < n; round++ {
		changed := false
		for _, u := range g.Vertices() {
			du, ok := dist[u]
			if !ok {
				continue
			}
			for _, e := range g.Out(u) {
				nd := du + e.W
				if dv, ok := dist[e.To]; !ok || nd < dv {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
