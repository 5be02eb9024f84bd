package graph

import (
	"reflect"
	"sync"
	"testing"
)

// buildLabeled returns a small directed graph exercising labels, props,
// parallel edges and a self-loop.
func buildLabeled() *Graph {
	g := New()
	g.AddVertex(10, "person")
	g.AddVertex(3, "")
	g.AddVertex(77, "product")
	g.SetProps(10, []string{"db", "graph"})
	g.AddLabeledEdge(10, 3, 1.5, "follows")
	g.AddLabeledEdge(10, 3, 2.5, "follows") // parallel
	g.AddLabeledEdge(3, 77, 2.25, "buy")
	g.AddLabeledEdge(77, 77, 1, "") // self-loop
	g.AddEdge(10, 77, 0.125)
	return g
}

// TestFreezePreservesBoundaryAPI: the one-operation mutators, Freeze
// included, build the graph a Builder builds, observation for observation.
func TestFreezePreservesBoundaryAPI(t *testing.T) {
	g := buildLabeled().Freeze()
	b := NewBuilder()
	b.AddVertex(10, "person")
	b.AddVertex(3, "")
	b.AddVertex(77, "product")
	b.SetProps(10, []string{"db", "graph"})
	b.AddLabeledEdge(10, 3, 1.5, "follows")
	b.AddLabeledEdge(10, 3, 2.5, "follows")
	b.AddLabeledEdge(3, 77, 2.25, "buy")
	b.AddLabeledEdge(77, 77, 1, "")
	b.AddEdge(10, 77, 0.125)
	want := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Diff(want, g); err != nil {
		t.Fatal(err)
	}
	for _, v := range want.Vertices() {
		if !reflect.DeepEqual(g.In(v), want.In(v)) {
			t.Fatalf("in of %d changed: %v vs %v", v, g.In(v), want.In(v))
		}
	}
}

func TestDenseAccessorsAgreeWithBoundaryAPI(t *testing.T) {
	g := buildLabeled()
	for i := int32(0); i < int32(g.NumVertices()); i++ {
		id := g.IDAt(i)
		if g.LabelAt(i) != g.Label(id) {
			t.Fatalf("LabelAt(%d) mismatch", i)
		}
		if g.LabelName(g.LabelIDAt(i)) != g.Label(id) {
			t.Fatalf("LabelIDAt(%d) interning mismatch", i)
		}
		if g.OutDegreeAt(i) != len(g.Out(id)) || g.InDegreeAt(i) != len(g.In(id)) {
			t.Fatalf("degrees at %d mismatch", i)
		}
		for k, e := range g.OutAt(i) {
			sparse := g.Out(id)[k]
			if g.IDAt(e.To) != sparse.To || e.W != sparse.W || g.LabelName(e.Label) != sparse.Label {
				t.Fatalf("OutAt(%d)[%d] = %+v does not match %+v", i, k, e, sparse)
			}
		}
		for k, e := range g.InAt(i) {
			sparse := g.In(id)[k]
			if g.IDAt(e.To) != sparse.To || e.W != sparse.W || g.LabelName(e.Label) != sparse.Label {
				t.Fatalf("InAt(%d)[%d] = %+v does not match %+v", i, k, e, sparse)
			}
		}
	}
	if _, ok := g.LabelID("follows"); !ok {
		t.Fatal("edge label not interned")
	}
	if _, ok := g.LabelID("no-such-label"); ok {
		t.Fatal("phantom label interned")
	}
}

// TestFrozenConcurrentReads: every read accessor — In() included — is safe
// for concurrent use (run under -race in CI).
func TestFrozenConcurrentReads(t *testing.T) {
	b := NewBuilder()
	for v := 0; v < 200; v++ {
		b.AddVertex(ID(v), "")
	}
	for v := 0; v < 200; v++ {
		b.AddEdge(ID(v), ID((v*7+1)%200), 1)
		b.AddEdge(ID(v), ID((v*13+5)%200), 2)
	}
	g := b.Graph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			total := 0
			for v := 0; v < 200; v++ {
				id := ID((v + seed) % 200)
				total += len(g.In(id)) + len(g.Out(id))
				i, _ := g.Index(id)
				total += len(g.InAt(i)) + len(g.OutAt(i))
				_ = g.LabelIDAt(i)
				g.BFS(id, func(ID, int) bool { return true })
			}
			if total == 0 {
				t.Error("no edges seen")
			}
		}(w)
	}
	wg.Wait()
}

func TestCloneFrozenIsIndependent(t *testing.T) {
	g := buildLabeled()
	c := g.Clone()
	c.AddEdge(3, 10, 1)
	c.AddVertex(3, "relabelled")
	if len(g.Out(3)) != 1 || len(c.Out(3)) != 2 || g.Label(3) != "" {
		t.Fatalf("a change leaked: orig %v %q clone %v", g.Out(3), g.Label(3), c.Out(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- CSR microbenchmarks: the isolated traversal win, independent of any
// engine machinery. Run with -bench 'BenchmarkTraversal' -benchmem.

func benchGraph(n int) *Graph {
	g := NewBuilder()
	for v := 0; v < n; v++ {
		g.AddVertex(ID(v), "")
	}
	for v := 0; v < n; v++ {
		for k := 1; k <= 8; k++ {
			g.AddEdge(ID(v), ID((v*k+k)%n), float64(k))
		}
	}
	return g.Graph()
}

// The benchmark bodies do what every traversal kernel does per edge hop:
// land on the target and touch per-target state. DenseEdge.To indexes that
// state directly.
func BenchmarkTraversalOut(b *testing.B) {
	const n = 10000
	g := benchGraph(n)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for vi := int32(0); vi < int32(n); vi++ {
			for _, e := range g.OutAt(vi) {
				sum += g.OutDegreeAt(e.To)
			}
		}
	}
	_ = sum
}

func BenchmarkTraversalIn(b *testing.B) {
	const n = 10000
	g := benchGraph(n)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for vi := int32(0); vi < int32(n); vi++ {
			for _, e := range g.InAt(vi) {
				sum += g.OutDegreeAt(e.To)
			}
		}
	}
	_ = sum
}

// inEdges lists each vertex's in-edges from the out-edges, sources in dense
// order — the reference for the derived reverse CSR.
func inEdges(g *Graph) map[ID][]Edge {
	in := map[ID][]Edge{}
	for _, u := range g.Vertices() {
		for _, e := range g.Out(u) {
			in[e.To] = append(in[e.To], Edge{To: u, W: e.W, Label: e.Label})
		}
	}
	if !g.Directed() {
		for _, u := range g.Vertices() {
			in[u] = g.Out(u)
		}
	}
	return in
}

// TestLazyReverseCSR: a directed graph derives its reverse CSR on the first
// InAt / InDegreeAt / In — Builder.Graph, Validate, Diff, the out side and
// the wire form all leave it alone — and concurrent first callers, through
// the graph and through clones sharing its arrays, all see the in-edges the
// out-edges imply. Run under -race.
func TestLazyReverseCSR(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, true)
		wantIn := inEdges(g)
		fz := g.Clone()
		dec, _, err := DecodeFlat(AppendFlat(nil, fz))
		if err != nil {
			t.Fatal(err)
		}
		if err := Diff(fz, dec); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Graph{fz, dec} {
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			for i := int32(0); i < int32(h.NumVertices()); i++ {
				_, _ = h.OutAt(i), h.Out(h.IDAt(i))
			}
			if h.lazy.rev.Load() != nil {
				t.Fatalf("seed %d: reverse CSR derived before anything read it", seed)
			}
		}
		var wg sync.WaitGroup
		for _, h := range []*Graph{fz, fz.Clone(), dec, dec.Clone()} {
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int32(0); i < int32(h.NumVertices()); i++ {
						want := wantIn[h.IDAt(i)]
						got := h.InAt(i)
						if len(got) != len(want) || h.InDegreeAt(i) != len(want) {
							t.Errorf("seed %d vertex %d: %d in-edges, want %d", seed, h.IDAt(i), len(got), len(want))
							return
						}
						for k, e := range got {
							if (Edge{To: h.IDAt(e.To), W: e.W, Label: h.LabelName(e.Label)}) != want[k] {
								t.Errorf("seed %d vertex %d: in-edge %d is %+v, want %+v", seed, h.IDAt(i), k, e, want[k])
								return
							}
						}
					}
				}()
			}
		}
		wg.Wait()
	}
}
