package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// equalGraphs checks that two graphs are indistinguishable through
// every public observation: Diff (ids, labels, props and adjacency in dense
// order), the dense accessors, the reverse CSR and the label intern table.
func equalGraphs(t *testing.T, want, got *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("reconstructed graph invalid: %v", err)
	}
	if err := Diff(want, got); err != nil {
		t.Fatal(err)
	}
	if want.NumEdges() != got.NumEdges() || want.Directed() != got.Directed() {
		t.Fatal("edge count or kind differ")
	}
	if want.NumLabels() != got.NumLabels() {
		t.Fatalf("label tables differ: %d vs %d", want.NumLabels(), got.NumLabels())
	}
	for l := int32(0); l < int32(want.NumLabels()); l++ {
		if want.LabelName(l) != got.LabelName(l) {
			t.Fatalf("label %d: %q vs %q", l, want.LabelName(l), got.LabelName(l))
		}
	}
	for i := int32(0); i < int32(want.NumVertices()); i++ {
		if want.LabelIDAt(i) != got.LabelIDAt(i) {
			t.Fatalf("vertex %d: interned label differs", i)
		}
		if !reflect.DeepEqual(want.OutAt(i), got.OutAt(i)) {
			t.Fatalf("vertex %d: packed out-edges differ", i)
		}
		if !reflect.DeepEqual(want.InAt(i), got.InAt(i)) {
			t.Fatalf("vertex %d: packed in-edges differ", i)
		}
		id := want.IDAt(i)
		if !reflect.DeepEqual(want.In(id), got.In(id)) {
			t.Fatalf("vertex %d: sparse in-edges differ", id)
		}
	}
}

// randomGraph builds a random labeled graph from a seed: sparse IDs, a few
// distinct vertex and edge labels, props on some vertices, parallel edges and
// self-loops all possible.
func randomGraph(seed int64, directed bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewUndirectedBuilder()
	if directed {
		g = NewBuilder()
	}
	nv := rng.Intn(40)
	vlabels := []string{"", "a", "b", "person"}
	elabels := []string{"", "x", "follows"}
	ids := make([]ID, 0, nv)
	for i := 0; i < nv; i++ {
		id := ID(rng.Intn(500))
		g.AddVertex(id, vlabels[rng.Intn(len(vlabels))])
		ids = append(ids, id)
		if rng.Intn(4) == 0 {
			g.SetProps(id, []string{"k", "w"}[:1+rng.Intn(2)])
		}
	}
	if len(ids) > 0 {
		ne := rng.Intn(80)
		for i := 0; i < ne; i++ {
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			g.AddLabeledEdge(u, v, float64(rng.Intn(8))+0.5, elabels[rng.Intn(len(elabels))])
		}
	}
	return g.Graph()
}

// TestFromMappedFreezeEquivalence: for random graphs, FromMapped(CSRView(g))
// must be indistinguishable from g itself — the flat form round-trips every
// observation.
func TestFromMappedFreezeEquivalence(t *testing.T) {
	prop := func(seed int64, directed bool) bool {
		g := randomGraph(seed, directed)
		got, err := FromMapped(g.CSRView())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		equalGraphs(t, g, got)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFromMappedCopiesOnMutate proves a mapped graph never writes through the
// arrays it was built from: mutate it, and the caller's slices are unchanged.
func TestFromMappedCopiesOnMutate(t *testing.T) {
	g := randomGraph(7, true)
	d := g.CSRView()
	// Snapshot the mapped arrays the way a file mapping would hold them.
	ids := append([]ID(nil), d.IDs...)
	outOff := append([]int32(nil), d.OutOff...)
	outDense := append([]DenseEdge(nil), d.OutDense...)
	m, err := FromMapped(CSRData{
		Directed: d.Directed, NumEdges: d.NumEdges,
		IDs: ids, VLabels: append([]int32(nil), d.VLabels...),
		OutOff: outOff, OutDense: outDense,
		InOff: append([]int32(nil), d.InOff...), InDense: append([]DenseEdge(nil), d.InDense...),
		Labels: append([]string(nil), d.Labels...),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.AddLabeledEdge(9999, 9998, 1.25, "new")
	m.AddVertex(9997, "fresh")
	for i := int32(0); i < int32(len(ids)); i++ {
		if es := m.Out(ids[i]); len(es) > 0 {
			if _, ok := m.RemoveEdge(ids[i], es[0].To, es[0].Label); !ok {
				t.Fatal("remove failed")
			}
			break
		}
	}
	if !reflect.DeepEqual(ids[:len(d.IDs)], d.IDs) ||
		!reflect.DeepEqual(outOff, d.OutOff) ||
		!reflect.DeepEqual(outDense, d.OutDense) {
		t.Fatal("mutation wrote through the mapped arrays")
	}
}

// TestFromMappedRejectsCorruptInput spot-checks the bounds validation.
func TestFromMappedRejectsCorruptInput(t *testing.T) {
	g := randomGraph(11, true)
	base := g.CSRView()
	if g.NumVertices() < 2 || len(base.OutDense) == 0 {
		t.Skip("degenerate seed")
	}
	corrupt := func(name string, mut func(*CSRData)) {
		d := base
		d.IDs = append([]ID(nil), base.IDs...)
		d.VLabels = append([]int32(nil), base.VLabels...)
		d.OutOff = append([]int32(nil), base.OutOff...)
		d.OutDense = append([]DenseEdge(nil), base.OutDense...)
		mut(&d)
		if _, err := FromMapped(d); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
	corrupt("dup id", func(d *CSRData) { d.IDs[1] = d.IDs[0] })
	corrupt("label out of range", func(d *CSRData) { d.VLabels[0] = int32(len(d.Labels)) })
	corrupt("target out of range", func(d *CSRData) { d.OutDense[0].To = int32(len(d.IDs)) })
	corrupt("offsets not monotone", func(d *CSRData) { d.OutOff[1] = d.OutOff[len(d.OutOff)-1] + 1 })
	corrupt("short vlab", func(d *CSRData) { d.VLabels = d.VLabels[:len(d.VLabels)-1] })
}
