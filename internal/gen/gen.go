// Package gen builds the deterministic synthetic datasets used throughout the
// reproduction. Each generator targets the structural property that drives
// the corresponding experiment in the paper:
//
//   - RoadGrid: a weighted grid with O(√n) diameter, standing in for the US
//     road network of Table 1. High diameter is what makes vertex-centric
//     SSSP need thousands of supersteps.
//   - PreferentialAttachment: a scale-free social graph standing in for
//     LiveJournal in the partition-impact experiment; heavy-tailed degrees
//     and a small diameter make edge-cut quality matter.
//   - SocialCommerce: a labeled person/product graph with follow, recommend,
//     rate_bad and buy edges, standing in for Weibo in the GPAR demo.
//   - Ratings: a bipartite user–item rating graph drawn from a planted
//     latent-factor model, so collaborative filtering has signal to learn.
//   - Random: an Erdős–Rényi G(n, m) graph for property-based tests.
//
// Every generator takes an explicit seed and is fully deterministic, and
// builds its graph with a graph.Builder.
package gen

import (
	"fmt"
	"math/rand"

	"grape/internal/graph"
)

// RoadGrid returns a directed rows×cols grid with bidirectional road segments
// of weight 1..10 and a sprinkling of longer "highway" shortcuts. Vertex IDs
// are r*cols+c. The graph is connected and has hop diameter ≈ rows+cols.
func RoadGrid(rows, cols int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewBuilder()
	id := func(r, c int) graph.ID { return graph.ID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddVertex(id(r, c), "")
		}
	}
	addRoad := func(u, v graph.ID) {
		w := 1 + rng.Float64()*9
		g.AddEdge(u, v, w)
		g.AddEdge(v, u, w)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addRoad(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addRoad(id(r, c), id(r+1, c))
			}
		}
	}
	// A few highways: longer jumps with proportionally lower per-hop cost.
	highways := (rows * cols) / 100
	for i := 0; i < highways; i++ {
		r := rng.Intn(rows)
		c := rng.Intn(cols)
		span := 2 + rng.Intn(8)
		if c+span < cols {
			w := float64(span) * (0.5 + rng.Float64()*0.5)
			g.AddEdge(id(r, c), id(r, c+span), w)
			g.AddEdge(id(r, c+span), id(r, c), w)
		}
	}
	return g.Graph()
}

// PreferentialAttachment returns a directed scale-free graph with n vertices
// where each new vertex attaches m out-edges preferentially to high-degree
// targets (Barabási–Albert flavored). Edge weights are 1. Vertex IDs are
// 0..n-1; the graph is weakly connected.
func PreferentialAttachment(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewBuilder()
	// repeated-endpoint list implements preferential selection in O(1)
	targets := make([]graph.ID, 0, 2*n*m)
	for v := 0; v < n; v++ {
		id := graph.ID(v)
		g.AddVertex(id, "")
		k := m
		if v == 0 {
			continue
		}
		if v < m {
			k = v
		}
		chosen := make(map[graph.ID]bool, k)
		for len(chosen) < k {
			var t graph.ID
			if len(targets) == 0 || rng.Float64() < 0.1 {
				t = graph.ID(rng.Intn(v)) // uniform escape keeps it connected-ish
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t == id || chosen[t] {
				continue
			}
			chosen[t] = true
			g.AddEdge(id, t, 1)
			// social edges are usually reciprocated occasionally
			if rng.Float64() < 0.3 {
				g.AddEdge(t, id, 1)
			}
			targets = append(targets, t, id)
		}
	}
	return g.Graph()
}

// Random returns a directed Erdős–Rényi-style graph with n vertices and m
// edges (self-loops excluded, parallel edges possible). Weights are uniform
// in [1, 10).
func Random(n, m int, seed int64) *graph.Graph {
	return random(n, m, rand.New(rand.NewSource(seed))).Graph()
}

func random(n, m int, rng *rand.Rand) *graph.Builder {
	g := graph.NewBuilder()
	for v := 0; v < n; v++ {
		g.AddVertex(graph.ID(v), "")
	}
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(graph.ID(u), graph.ID(v), 1+rng.Float64()*9)
	}
	return g
}

// ConnectedRandom returns Random plus a random spanning path so that every
// vertex is reachable from vertex 0. Used where tests need full reachability.
func ConnectedRandom(n, m int, seed int64) *graph.Graph {
	g := random(n, m, rand.New(rand.NewSource(seed)))
	rng := rand.New(rand.NewSource(seed + 1))
	perm := rng.Perm(n)
	prev := graph.ID(0)
	for _, p := range perm {
		v := graph.ID(p)
		if v == prev {
			continue
		}
		g.AddEdge(prev, v, 1+rng.Float64()*9)
		prev = v
	}
	return g.Graph()
}

// Labels used by SocialCommerce.
const (
	LabelPerson  = "person"
	LabelProduct = "product"

	EdgeFollow    = "follow"
	EdgeRecommend = "recommend"
	EdgeRateBad   = "rate_bad"
	EdgeBuy       = "buy"
)

// SocialCommerceConfig controls SocialCommerce generation.
type SocialCommerceConfig struct {
	People   int // number of person vertices
	Products int // number of product vertices
	Follows  int // follow out-degree per person (preferentially attached)
	// AdoptP is the probability that a follower of many recommenders also
	// recommends; it plants the ≥80%-of-followees GPAR signal of Example 2.
	AdoptP float64
	Seed   int64
}

// SocialCommerce returns a labeled directed graph of people and products.
// People cluster into per-product fan communities: they mostly follow within
// their community, and community members often recommend "their" product —
// so the Example 2 condition ("≥80% of x's followees recommend y, nobody
// rates it badly") genuinely occurs. The generator then plants the rule's
// consequent: people satisfying the condition buy with probability AdoptP.
// GPAR mining therefore has real positives to find, with noise edges
// (cross-community follows, bad ratings, random buys) around them.
func SocialCommerce(cfg SocialCommerceConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewBuilder()
	person := func(i int) graph.ID { return graph.ID(i) }
	product := func(j int) graph.ID { return graph.ID(cfg.People + j) }
	if cfg.Products < 1 {
		cfg.Products = 1
	}
	for i := 0; i < cfg.People; i++ {
		g.AddVertex(person(i), LabelPerson)
	}
	for j := 0; j < cfg.Products; j++ {
		id := product(j)
		g.AddVertex(id, LabelProduct)
		g.SetProps(id, []string{fmt.Sprintf("product_%d", j)})
	}
	community := func(i int) int { return i % cfg.Products }
	// Follow edges: mostly within the community, occasionally anywhere.
	for i := 1; i < cfg.People; i++ {
		k := cfg.Follows
		if i < k {
			k = i
		}
		seen := map[graph.ID]bool{}
		for len(seen) < k {
			var t graph.ID
			if rng.Float64() < 0.8 {
				// same community, lower index (keeps the graph acyclic-ish
				// in follow direction but that is irrelevant to the rule)
				c := community(i)
				cand := c + cfg.Products*rng.Intn(1+(i-1)/cfg.Products)
				if cand >= i || community(cand) != c {
					continue
				}
				t = person(cand)
			} else {
				t = person(rng.Intn(i))
			}
			if t == person(i) || seen[t] {
				continue
			}
			seen[t] = true
			g.AddLabeledEdge(person(i), t, 1, EdgeFollow)
		}
	}
	// Recommendations: community members recommend their product often,
	// other products rarely; a small fraction of people are detractors who
	// rate the community product badly instead.
	for i := 0; i < cfg.People; i++ {
		p := person(i)
		c := community(i)
		switch {
		case rng.Float64() < 0.03:
			g.AddLabeledEdge(p, product(c), 1, EdgeRateBad)
		case rng.Float64() < 0.7:
			g.AddLabeledEdge(p, product(c), 1, EdgeRecommend)
		}
		if rng.Float64() < 0.05 {
			g.AddLabeledEdge(p, product(rng.Intn(cfg.Products)), 1, EdgeRecommend)
		}
	}
	// Plant the consequent: exactly when the rule's condition holds, buy
	// with probability AdoptP; plus a trickle of random buys as noise.
	for i := 0; i < cfg.People; i++ {
		p := person(i)
		recs := map[graph.ID]int{}
		bads := map[graph.ID]bool{}
		nFollow := 0
		for _, e := range g.Out(p) {
			if e.Label != EdgeFollow {
				continue
			}
			nFollow++
			for _, fe := range g.Out(e.To) {
				switch fe.Label {
				case EdgeRecommend:
					recs[fe.To]++
				case EdgeRateBad:
					bads[fe.To] = true
				}
			}
		}
		if nFollow == 0 {
			continue
		}
		for prod, c := range recs {
			if float64(c) >= 0.8*float64(nFollow) && !bads[prod] && rng.Float64() < cfg.AdoptP {
				g.AddLabeledEdge(p, prod, 1, EdgeBuy)
			}
		}
		if rng.Float64() < 0.02 {
			g.AddLabeledEdge(p, product(rng.Intn(cfg.Products)), 1, EdgeBuy)
		}
	}
	return g.Graph()
}

// RatingsConfig controls Ratings generation.
type RatingsConfig struct {
	Users, Items   int
	RatingsPerUser int
	Factors        int // planted latent dimension
	Noise          float64
	Seed           int64
}

// Ratings returns an undirected bipartite user–item graph whose edge weights
// are ratings in [1, 5] drawn from a planted latent-factor model
// r(u,i) = clamp(μ + p_u · q_i + ε). User IDs are 0..Users-1, item IDs are
// Users..Users+Items-1, and vertices are labeled "user" / "item".
func Ratings(cfg RatingsConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Factors <= 0 {
		cfg.Factors = 4
	}
	p := make([][]float64, cfg.Users)
	q := make([][]float64, cfg.Items)
	for u := range p {
		p[u] = randVec(rng, cfg.Factors)
	}
	for i := range q {
		q[i] = randVec(rng, cfg.Factors)
	}
	g := graph.NewUndirectedBuilder()
	for u := 0; u < cfg.Users; u++ {
		g.AddVertex(graph.ID(u), "user")
	}
	for i := 0; i < cfg.Items; i++ {
		g.AddVertex(graph.ID(cfg.Users+i), "item")
	}
	for u := 0; u < cfg.Users; u++ {
		seen := map[int]bool{}
		for k := 0; k < cfg.RatingsPerUser; k++ {
			i := rng.Intn(cfg.Items)
			if seen[i] {
				continue
			}
			seen[i] = true
			r := 3.0 + dot(p[u], q[i]) + rng.NormFloat64()*cfg.Noise
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			g.AddEdge(graph.ID(u), graph.ID(cfg.Users+i), r)
		}
	}
	return g.Graph()
}

// DirectedRatings is Ratings with user→item edges on a directed graph — the
// shape incremental sessions need (sessions are directed-only). CF only ever
// walks out-edges of "user"-labeled vertices, so training sees the same
// rating multiset as on the undirected form.
func DirectedRatings(cfg RatingsConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Factors <= 0 {
		cfg.Factors = 4
	}
	p := make([][]float64, cfg.Users)
	q := make([][]float64, cfg.Items)
	for u := range p {
		p[u] = randVec(rng, cfg.Factors)
	}
	for i := range q {
		q[i] = randVec(rng, cfg.Factors)
	}
	g := graph.NewBuilder()
	for u := 0; u < cfg.Users; u++ {
		g.AddVertex(graph.ID(u), "user")
	}
	for i := 0; i < cfg.Items; i++ {
		g.AddVertex(graph.ID(cfg.Users+i), "item")
	}
	for u := 0; u < cfg.Users; u++ {
		seen := map[int]bool{}
		for k := 0; k < cfg.RatingsPerUser; k++ {
			i := rng.Intn(cfg.Items)
			if seen[i] {
				continue
			}
			seen[i] = true
			r := 3.0 + dot(p[u], q[i]) + rng.NormFloat64()*cfg.Noise
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			g.AddEdge(graph.ID(u), graph.ID(cfg.Users+i), r)
		}
	}
	return g.Graph()
}

func randVec(rng *rand.Rand, k int) []float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = rng.NormFloat64() * 0.5
	}
	return v
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AttachKeywords assigns each vertex up to k random keywords from vocab with
// probability p each, for keyword-search workloads; a vertex that draws none
// keeps the properties it had. Deterministic in seed: the draws go vertex by
// vertex in dense order, and the graph's properties are rebuilt once.
func AttachKeywords(g *graph.Graph, vocab []string, k int, p float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var props []string
	g.MapProps(func(_ int32, old []string) []string {
		props = props[:0]
		for i := 0; i < k; i++ {
			if rng.Float64() < p {
				props = append(props, vocab[rng.Intn(len(vocab))])
			}
		}
		if len(props) == 0 {
			return old
		}
		return props
	})
}
