package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// upGraph is randomGraph with every kind of repeat the up view must collapse
// or drop, made certain: a self-loop, a parallel copy and a reciprocal copy
// of existing edges. The IDs are sparse and their dense order random.
func upGraph(seed int64, directed bool) *Graph {
	g := randomGraph(seed, directed)
	rng := rand.New(rand.NewSource(seed))
	ids := g.Vertices()
	if len(ids) == 0 {
		return g
	}
	for k := 0; k < 4; k++ {
		u := ids[rng.Intn(len(ids))]
		g.AddEdge(u, u, 1)
		if es := g.Out(u); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			g.AddLabeledEdge(u, e.To, e.W, e.Label)
			g.AddEdge(e.To, u, 2)
		}
	}
	return g
}

// upSets is the brute-force up view of a graph, from its out-edges alone:
// for each vertex, the set of its neighbors over both edge directions with a
// larger ID.
func upSets(g *Graph) map[ID]map[ID]bool {
	sets := make(map[ID]map[ID]bool, g.NumVertices())
	for _, v := range g.Vertices() {
		sets[v] = map[ID]bool{}
	}
	for _, u := range g.Vertices() {
		for _, e := range g.Out(u) {
			if lo, hi := min(u, e.To), max(u, e.To); lo != hi {
				sets[lo][hi] = true
			}
		}
	}
	return sets
}

// checkUp holds h's up view to want, and reports the first difference.
func checkUp(t *testing.T, what string, h *Graph, want map[ID]map[ID]bool) {
	t.Helper()
	off, adj := h.UpCSR()
	if len(off) != h.NumVertices()+1 || int(off[len(off)-1]) != len(adj) {
		t.Fatalf("%s: %d offsets ending at %d for %d vertices and %d entries", what, len(off), off[len(off)-1], h.NumVertices(), len(adj))
	}
	for i := int32(0); i < int32(h.NumVertices()); i++ {
		v := h.IDAt(i)
		got := map[ID]bool{}
		for _, a := range adj[off[i]:off[i+1]] {
			if got[h.IDAt(a)] {
				t.Fatalf("%s: vertex %d lists %d twice", what, v, h.IDAt(a))
			}
			got[h.IDAt(a)] = true
		}
		if len(got) != len(want[v]) {
			t.Fatalf("%s: vertex %d lists %v, want %v", what, v, got, want[v])
		}
		for w := range want[v] {
			if !got[w] {
				t.Fatalf("%s: vertex %d lists %v, want %v", what, v, got, want[v])
			}
		}
	}
}

// TestUpCSRMatchesNeighbourSets: UpCSR lists, for every vertex, each of its
// undirected neighbors with a larger ID exactly once — on random directed
// and undirected graphs with sparse IDs, self-loops, parallel and reciprocal
// edges; as built, decoded from its flat form, and spliced
// (a batch appending a vertex out of ID order) — and deriving it leaves the
// reverse CSR underived.
func TestUpCSRMatchesNeighbourSets(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for seed := int64(0); seed < 30; seed++ {
			g := upGraph(seed, directed)
			want := upSets(g)
			fz := g.Clone()
			decoded, _, err := DecodeFlat(AppendFlat(nil, g))
			if err != nil {
				t.Fatal(err)
			}
			for what, h := range map[string]*Graph{"frozen": fz, "decoded": decoded} {
				checkUp(t, what, h, want)
				if h.lazy.rev.Load() != nil {
					t.Fatalf("seed %d directed=%v %s: deriving the up view derived the reverse CSR", seed, directed, what)
				}
			}
			if !directed || g.NumVertices() == 0 {
				continue
			}

			// Splice: a new vertex whose ID sorts before every other, linked
			// both ways and twice to two old ones, and an old edge removed.
			shadow, b := g.Clone(), &Batch{}
			rng := rand.New(rand.NewSource(seed))
			ids := g.Vertices()
			nu := ID(-1 - seed)
			shadow.AddVertex(nu, "")
			b.AddVertex(nu, "", nil)
			for _, v := range []ID{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]} {
				for _, e := range [][2]ID{{nu, v}, {v, nu}, {nu, v}} {
					shadow.AddEdge(e[0], e[1], 1)
					b.AddEdge(e[0], e[1], 1, "")
				}
			}
			for _, u := range ids {
				if es := shadow.Out(u); len(es) > 0 && es[0].To != nu {
					shadow.RemoveEdge(u, es[0].To, es[0].Label)
					b.RemoveEdge(u, es[0].To, es[0].Label)
					break
				}
			}
			sp, _, err := Splice(g.Clone(), b)
			if err != nil {
				t.Fatal(err)
			}
			checkUp(t, "spliced", sp, upSets(shadow))
			if sp.lazy.rev.Load() != nil {
				t.Fatalf("seed %d spliced: deriving the up view derived the reverse CSR", seed)
			}
		}
	}
}

// TestLazyUpCSRConcurrentFirstUse: concurrent first callers of UpCSR, through
// a graph and through clones sharing its arrays, all get the one view
// derived once. Run under -race.
func TestLazyUpCSRConcurrentFirstUse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := upGraph(seed, true)
		want := upSets(g)
		fz := g.Clone()
		hs := []*Graph{fz, fz.Clone(), fz.Clone()}
		views := make([][]int32, 4*len(hs))
		var wg sync.WaitGroup
		for k := range views {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := hs[k%len(hs)]
				off, adj := h.UpCSR()
				for i := int32(0); i < int32(h.NumVertices()); i++ {
					for _, a := range adj[off[i]:off[i+1]] {
						if !want[h.IDAt(i)][h.IDAt(a)] {
							t.Errorf("seed %d: vertex %d lists %d", seed, h.IDAt(i), h.IDAt(a))
							return
						}
					}
				}
				views[k] = off
			}()
		}
		wg.Wait()
		for _, off := range views[1:] {
			if &off[0] != &views[0][0] {
				t.Fatalf("seed %d: the up view was derived more than once", seed)
			}
		}
		checkUp(t, "frozen", fz, want)
	}
}
