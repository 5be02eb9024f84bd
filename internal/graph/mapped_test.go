package graph

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
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
		if !slices.Equal(want.OutAt(i), got.OutAt(i)) {
			t.Fatalf("vertex %d: packed out-edges differ", i)
		}
		if !slices.Equal(want.InAt(i), got.InAt(i)) {
			t.Fatalf("vertex %d: packed in-edges differ", i)
		}
		id := want.IDAt(i)
		if !slices.Equal(want.In(id), got.In(id)) {
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

// TestFlatRoundTripRandom: for random graphs, DecodeFlat(AppendFlat(g))
// must be indistinguishable from g itself — the flat form round-trips every
// observation.
func TestFlatRoundTripRandom(t *testing.T) {
	prop := func(seed int64, directed bool) bool {
		g := randomGraph(seed, directed)
		got, _, err := DecodeFlat(AppendFlat(nil, g))
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

// TestDecodeFlatRejectsCorruptArrays: DecodeFlat refuses flat bytes whose
// arrays disagree with each other or with the header's counts, each for the
// reason the mutation plants. The graph is fixed — four vertices whose IDs
// ascend, labeled edges — so no case can skip, and a repeated ID must be
// caught by building the index, not by the one-pass ascent proof.
func TestDecodeFlatRejectsCorruptArrays(t *testing.T) {
	b := NewBuilder()
	for i, l := range []string{"a", "b", "", "a"} {
		b.AddVertex(ID(10*(i+1)), l)
	}
	b.AddLabeledEdge(10, 20, 1.5, "x")
	b.AddEdge(20, 30, 2)
	b.AddLabeledEdge(30, 40, 0.5, "y")
	b.AddEdge(40, 10, 1)
	good := AppendFlat(nil, b.Graph())
	if _, _, err := DecodeFlat(good); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	ids, vlab, outOff, outDense, _ := flatLayout(4, 4, uint64(le.Uint32(good[24:])))
	for _, c := range []struct {
		name, want string
		mut        func(b []byte)
	}{
		{"repeated ID", "IDs repeat", func(b []byte) { le.PutUint64(b[ids+16:], 10) }},
		{"vertex label out of range", "vertex 1 has label id", func(b []byte) { le.PutUint32(b[vlab+4:], 99) }},
		{"edge target out of range", "targets dense index 4 of 4", func(b []byte) { le.PutUint32(b[outDense+16:], 4) }},
		{"edge label out of range", "has label id 99", func(b []byte) { le.PutUint32(b[outDense+20:], 99) }},
		{"non-monotone offsets", "not monotone at 2", func(b []byte) { le.PutUint32(b[outOff+4:], 3) }},
		{"packed count below the offsets", "offsets cover 4 of 3 edges", func(b []byte) {
			le.PutUint32(b[12:], 3) // and |E| with it, past the header's own check
			le.PutUint64(b[16:], 3)
		}},
		{"|V| beyond the bytes", "claims |V|=5", func(b []byte) { le.PutUint32(b[8:], 5) }},
	} {
		bad := append([]byte(nil), good...)
		c.mut(bad)
		_, _, err := DecodeFlat(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
