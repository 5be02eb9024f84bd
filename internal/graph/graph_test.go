package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAddVertexAndLookup(t *testing.T) {
	g := New()
	i := g.AddVertex(10, "a")
	if g.NumVertices() != 1 || !g.Has(10) || g.Label(10) != "a" {
		t.Fatal("vertex not stored")
	}
	// re-add keeps index, updates non-empty label
	j := g.AddVertex(10, "")
	if i != j || g.Label(10) != "a" {
		t.Fatal("re-add must keep index and label")
	}
	g.AddVertex(10, "b")
	if g.Label(10) != "b" {
		t.Fatal("non-empty label should update")
	}
	if g.Has(99) || g.Label(99) != "" {
		t.Fatal("absent vertex misbehaves")
	}
}

func TestAddEdgeCreatesEndpoints(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 3.5)
	if !g.Has(1) || !g.Has(2) || g.NumEdges() != 1 {
		t.Fatal("edge endpoints missing")
	}
	out := g.Out(1)
	if len(out) != 1 || out[0].To != 2 || out[0].W != 3.5 {
		t.Fatalf("bad out edges: %v", out)
	}
	if len(g.Out(2)) != 0 {
		t.Fatal("directed graph must not mirror edges")
	}
}

func TestUndirectedMirrorsEdges(t *testing.T) {
	g := NewUndirected()
	g.AddEdge(1, 2, 1)
	if len(g.Out(1)) != 1 || len(g.Out(2)) != 1 {
		t.Fatal("undirected edge must appear on both endpoints")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("undirected edge counts once, got %d", g.NumEdges())
	}
	if len(g.In(1)) != 1 {
		t.Fatal("In == Out for undirected graphs")
	}
}

// TestInEdgesLazyBuild: the reverse CSR is derived on first use, and an edge
// added after that shows in the next In.
func TestInEdgesLazyBuild(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 2, 2)
	in := g.In(2)
	if len(in) != 2 {
		t.Fatalf("want 2 in-edges, got %d", len(in))
	}
	// edges added after In() was built must still appear
	g.AddEdge(4, 2, 3)
	if len(g.In(2)) != 3 {
		t.Fatalf("in-edges stale after AddEdge: %d", len(g.In(2)))
	}
	if g.InDegree(2) != 3 || g.OutDegree(2) != 0 {
		t.Fatal("degree accessors wrong")
	}
}

func TestProps(t *testing.T) {
	g := New()
	g.AddVertex(5, "x")
	g.SetProps(5, []string{"k1", "k2"})
	g.AddProp(5, "k3")
	if len(g.Props(5)) != 3 || g.Props(5)[2] != "k3" {
		t.Fatalf("props wrong: %v", g.Props(5))
	}
	if g.Props(42) != nil {
		t.Fatal("absent vertex should have nil props")
	}
}

func TestSetPropsPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().SetProps(1, []string{"a"})
}

func TestCloneIsDeep(t *testing.T) {
	g := New()
	g.AddVertex(1, "a")
	g.SetProps(1, []string{"p"})
	g.AddEdge(1, 2, 1)
	c := g.Clone()
	c.AddEdge(2, 1, 1)
	c.AddProp(1, "q")
	c.AddVertex(3, "z")
	if g.NumEdges() != 1 || g.NumVertices() != 2 || len(g.Props(1)) != 1 {
		t.Fatal("clone mutated the original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrized(t *testing.T) {
	g := New()
	g.AddLabeledEdge(1, 2, 5, "x")
	s := g.Symmetrized()
	if len(s.Out(2)) != 1 || s.Out(2)[0].To != 1 || s.Out(2)[0].Label != "x" {
		t.Fatalf("mirror edge missing: %v", s.Out(2))
	}
}

func TestBFSAndNeighborhood(t *testing.T) {
	g := New()
	// path 0 -> 1 -> 2 -> 3
	for i := ID(0); i < 3; i++ {
		g.AddEdge(i, i+1, 1)
	}
	depths := map[ID]int{}
	g.BFS(0, func(id ID, d int) bool {
		depths[id] = d
		return true
	})
	if depths[3] != 3 || len(depths) != 4 {
		t.Fatalf("bfs depths wrong: %v", depths)
	}
	// early stop
	count := 0
	g.BFS(0, func(ID, int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("bfs should stop early, visited %d", count)
	}
	ids := func(idx []int32) []ID {
		var out []ID
		for _, i := range idx {
			out = append(out, g.IDAt(i))
		}
		return out
	}
	i1, _ := g.Index(1)
	i3, _ := g.Index(3)
	if un := ids(g.UndirectedNeighborhood([]int32{i3}, 1)); !slices.Equal(un, []ID{2, 3}) {
		t.Fatalf("undirected 1-hop neighborhood of 3: %v", un)
	}
	if un := ids(g.UndirectedNeighborhood([]int32{i3, i1, i3}, 1)); !slices.Equal(un, []ID{0, 1, 2, 3}) {
		t.Fatalf("undirected 1-hop neighborhood of 3 and 1: %v", un)
	}
	if un := ids(g.UndirectedNeighborhood([]int32{i1}, 0)); !slices.Equal(un, []ID{1}) {
		t.Fatalf("0-hop neighborhood of 1: %v", un)
	}
	if d := g.Diameter(0); d != 3 {
		t.Fatalf("eccentricity from 0 should be 3, got %d", d)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// corrupt each CSR array in turn, on a clone sharing none of the others' damage
	for name, corrupt := range map[string]func(c *Graph){
		"target":  func(c *Graph) { c.outDense = []DenseEdge{{To: 999}} },
		"label":   func(c *Graph) { c.outDense = []DenseEdge{{To: 1, Label: 99}} },
		"offsets": func(c *Graph) { c.outOff = []int32{0, 2, 1} },
		"vlab":    func(c *Graph) { c.vlab = c.vlab[:1] },
		"index":   func(c *Graph) { c.index = map[ID]int32{1: 1, 2: 0} },
	} {
		c := g.Clone()
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
}

func TestSortedVerticesProperty(t *testing.T) {
	f := func(ids []uint16) bool {
		g := New()
		for _, id := range ids {
			g.AddVertex(ID(id), "")
		}
		sorted := g.SortedVertices()
		if len(sorted) != g.NumVertices() {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] >= sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexStability(t *testing.T) {
	g := New()
	for i := ID(0); i < 100; i++ {
		g.AddVertex(i*7, "")
	}
	for i := ID(0); i < 100; i++ {
		idx, ok := g.Index(i * 7)
		if !ok || g.IDAt(idx) != i*7 {
			t.Fatalf("index roundtrip broken for %d", i*7)
		}
	}
}

func TestTotalWeight(t *testing.T) {
	g := NewUndirected()
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	if w := g.TotalWeight(); w != 5 {
		t.Fatalf("undirected total weight should count once: %g", w)
	}
	d := New()
	d.AddEdge(1, 2, 2)
	d.AddEdge(2, 1, 3)
	if w := d.TotalWeight(); w != 5 {
		t.Fatalf("directed total weight: %g", w)
	}
}
