package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// spliceInput draws a frozen directed graph from seed: sparse IDs, a few
// vertex and edge labels, properties on some vertices, parallel edges and
// self-loops. Odd seeds go through the wire form, so the graph has no ID
// index of its own (as a cut fragment has none).
func spliceInput(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	nv := 1 + rng.Intn(12)
	for k := 0; k < nv; k++ {
		id := ID(7*k + 3)
		g.AddVertex(id, []string{"", "a", "b"}[rng.Intn(3)])
		if rng.Intn(3) == 0 {
			g.SetProps(id, []string{"p", "q"}[:1+rng.Intn(2)])
		}
	}
	for e := rng.Intn(3 * nv); e > 0; e-- {
		u, v := g.IDAt(int32(rng.Intn(nv))), g.IDAt(int32(rng.Intn(nv)))
		g.AddLabeledEdge(u, v, float64(rng.Intn(9)), []string{"", "x", "y"}[rng.Intn(3)])
	}
	g.Freeze()
	if seed%2 != 0 {
		dec, _, err := DecodeFlat(AppendFlat(nil, g))
		if err != nil {
			panic(err)
		}
		g = dec
	}
	return g
}

// FuzzSplice holds Splice to the thaw → mutate → Freeze reference: a random
// frozen graph and a batch drawn from the fuzzer's bytes — new vertices with
// labels and properties, insertions with new labels, parallel edges and
// self-loops, deletions of old edges and of the batch's own insertions.
func FuzzSplice(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add(int64(2), []byte{2, 5, 5, 1, 3, 5, 0, 0, 0, 9, 1, 4, 1, 9, 0, 2, 3, 9, 0, 0})
	f.Add(int64(3), []byte{3, 0, 0, 0, 3, 0, 1, 0, 3, 1, 0, 0, 1, 2, 4, 6})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g := spliceInput(seed)
		before, flat := g.Clone(), AppendFlat(nil, g)
		ref := g.Clone()
		ref.AddVertex(g.IDAt(0), "") // thaws the reference; the label stays
		var b Batch
		var want []float64
		vertex := func(x byte) ID { return ref.IDAt(int32(int(x) % ref.NumVertices())) }
		for len(ops) >= 4 {
			o := ops[:4]
			ops = ops[4:]
			switch o[0] % 4 {
			case 0:
				id := ID(1000 + ref.NumVertices())
				label := []string{"", "a", "c"}[o[1]%3]
				var props []string
				if o[2]%2 == 1 {
					props = []string{"p", "r"}[:1+int(o[3]%2)]
				}
				b.AddVertex(id, label, props)
				ref.AddVertex(id, label)
				if len(props) > 0 {
					ref.SetProps(id, props)
				}
			case 1, 2:
				u, v := vertex(o[1]), vertex(o[2])
				label := []string{"", "x", "z"}[o[3]%3]
				b.AddEdge(u, v, float64(o[3]), label)
				ref.AddLabeledEdge(u, v, float64(o[3]), label)
			case 3:
				u := vertex(o[1])
				out := ref.Out(u)
				if len(out) == 0 {
					continue
				}
				e := out[int(o[2])%len(out)]
				b.RemoveEdge(u, e.To, e.Label)
				removed, _ := ref.RemoveEdge(u, e.To, e.Label)
				want = append(want, removed.W)
			}
		}
		got, removed, err := Splice(g, &b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(AppendFlat(nil, g), flat) || Diff(g, before) != nil {
			t.Fatal("Splice wrote the input graph")
		}
		if !got.Frozen() || got.Validate() != nil {
			t.Fatalf("result not a valid frozen graph: %v", got.Validate())
		}
		if err := Diff(ref.Freeze(), got); err != nil {
			t.Fatalf("result differs from the reference: %v", err)
		}
		if len(removed) != len(want) {
			t.Fatalf("removed %v, reference %v", removed, want)
		}
		for k := range want {
			if removed[k] != want[k] {
				t.Fatalf("removed %v, reference %v", removed, want)
			}
		}
		for l := int32(0); int(l) < got.NumLabels(); l++ {
			if id, ok := got.LabelID(got.LabelName(l)); !ok || id != l {
				t.Fatalf("label %d (%q) interns as %d", l, got.LabelName(l), id)
			}
		}
	})
}

// TestSpliceClones: a spliced graph's vertex arrays have room to grow, and
// two frozen clones of it spliced apart keep their own new vertices.
func TestSpliceClones(t *testing.T) {
	var b Batch
	b.AddVertex(100, "a", nil)
	g, _, err := Splice(spliceInput(4), &b)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"b", "c"}
	var out [2]*Graph
	for k, h := range []*Graph{g, g.Clone()} {
		var b Batch
		b.AddVertex(ID(200+k), labels[k], nil)
		if out[k], _, err = Splice(h, &b); err != nil {
			t.Fatal(err)
		}
	}
	for k, h := range out {
		if got := h.Label(ID(200 + k)); got != labels[k] {
			t.Errorf("splice %d: vertex %d labelled %q, want %q", k, 200+k, got, labels[k])
		}
	}
}

// TestSpliceRefuses: a batch Splice cannot apply leaves the graph as it was,
// ID index included.
func TestSpliceRefuses(t *testing.T) {
	cases := []struct {
		name string
		b    func(*Batch)
		want string
	}{
		{"unknown vertex", func(b *Batch) { b.AddEdge(3, 99, 1, "") }, "absent"},
		{"present vertex", func(b *Batch) { b.AddVertex(3, "", nil) }, "present"},
		{"added twice", func(b *Batch) { b.AddVertex(99, "", nil); b.AddVertex(99, "", nil) }, "twice"},
		{"missing edge", func(b *Batch) { b.AddVertex(99, "", nil); b.RemoveEdge(3, 99, "") }, "absent"},
		{"deleted twice", func(b *Batch) {
			b.AddEdge(3, 3, 1, "new")
			b.RemoveEdge(3, 3, "new")
			b.RemoveEdge(3, 3, "new")
		}, "absent"},
	}
	for _, c := range cases {
		g := spliceInput(2)
		flat := AppendFlat(nil, g)
		var b Batch
		c.b(&b)
		if _, _, err := Splice(g, &b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: want a refusal saying %q, got %v", c.name, c.want, err)
		}
		if !bytes.Equal(AppendFlat(nil, g), flat) || g.Validate() != nil || g.Has(99) {
			t.Fatalf("%s: a refused Splice changed the graph", c.name)
		}
	}
	if _, _, err := Splice(New(), &Batch{}); err == nil {
		t.Fatal("Splice took a graph in the build phase")
	}
}
