package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// spliceInput draws a graph from seed: sparse IDs, a few vertex and edge
// labels, properties on some vertices, parallel edges and self-loops. Seeds
// 2 and 3 mod 4 draw an undirected graph. Odd seeds go through the wire form,
// so the graph has no ID index of its own (as a cut fragment has none).
func spliceInput(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewBuilder()
	if seed&2 != 0 {
		g = NewUndirectedBuilder()
	}
	nv := 1 + rng.Intn(12)
	ids := make([]ID, nv)
	for k := range ids {
		ids[k] = ID(7*k + 3)
		g.AddVertex(ids[k], []string{"", "a", "b"}[rng.Intn(3)])
		if rng.Intn(3) == 0 {
			g.SetProps(ids[k], []string{"p", "q"}[:1+rng.Intn(2)])
		}
	}
	for e := rng.Intn(3 * nv); e > 0; e-- {
		u, v := ids[rng.Intn(nv)], ids[rng.Intn(nv)]
		g.AddLabeledEdge(u, v, float64(rng.Intn(9)), []string{"", "x", "y"}[rng.Intn(3)])
	}
	out := g.Graph()
	if seed%2 != 0 {
		dec, _, err := DecodeFlat(AppendFlat(nil, out))
		if err != nil {
			panic(err)
		}
		out = dec
	}
	return out
}

// edgeLists is a graph as per-vertex lists in dense order: what FuzzSplice's
// oracle edits.
type edgeLists struct {
	directed bool
	ids      []ID
	labels   []string
	props    [][]string
	out      [][]Edge
	edges    int
}

func listsOf(g *Graph) *edgeLists {
	l := &edgeLists{directed: g.Directed(), edges: g.NumEdges()}
	for i, id := range g.Vertices() {
		l.ids = append(l.ids, id)
		l.labels = append(l.labels, g.LabelAt(int32(i)))
		l.props = append(l.props, g.PropsAt(int32(i)))
		l.out = append(l.out, slices.Clone(g.Out(id)))
	}
	return l
}

func (l *edgeLists) addEdge(u, v ID, w float64, label string) {
	ui, vi := slices.Index(l.ids, u), slices.Index(l.ids, v)
	l.out[ui] = append(l.out[ui], Edge{To: v, W: w, Label: label})
	if !l.directed {
		l.out[vi] = append(l.out[vi], Edge{To: u, W: w, Label: label})
	}
	l.edges++
}

// removeEdge deletes the first u→v edge with label, and on an undirected
// graph the first mirror with its weight, and returns the weight.
func (l *edgeLists) removeEdge(u, v ID, label string) float64 {
	del := func(at ID, match func(Edge) bool) float64 {
		i := slices.Index(l.ids, at)
		k := slices.IndexFunc(l.out[i], match)
		w := l.out[i][k].W
		l.out[i] = slices.Delete(l.out[i], k, k+1)
		return w
	}
	w := del(u, func(e Edge) bool { return e.To == v && e.Label == label })
	if !l.directed {
		del(v, func(e Edge) bool { return e.To == u && e.Label == label && e.W == w })
	}
	l.edges--
	return w
}

// graph builds the lists with a Builder. An undirected graph's lists hold
// both directions already, so they are added as directed edges and the kind
// and edge count are set after.
func (l *edgeLists) graph() *Graph {
	b := NewBuilder()
	for i, id := range l.ids {
		b.AddVertex(id, l.labels[i])
		b.SetProps(id, l.props[i])
	}
	for i, es := range l.out {
		for _, e := range es {
			b.AddLabeledEdge(l.ids[i], e.To, e.W, e.Label)
		}
	}
	g := b.Graph()
	g.directed, g.numEdges = l.directed, l.edges
	return g
}

// FuzzSplice holds Splice to an oracle that applies the batch to the graph's
// edge lists and builds the result with a Builder: a random graph, directed
// or not, and a batch drawn from the fuzzer's bytes — new vertices with
// labels and properties, insertions with new labels, parallel edges and
// self-loops, deletions of old edges and of the batch's own insertions.
func FuzzSplice(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add(int64(2), []byte{2, 5, 5, 1, 3, 5, 0, 0, 0, 9, 1, 4, 1, 9, 0, 2, 3, 9, 0, 0})
	f.Add(int64(3), []byte{3, 0, 0, 0, 3, 0, 1, 0, 3, 1, 0, 0, 1, 2, 4, 6})
	f.Add(int64(4), []byte{})
	f.Add(int64(6), []byte{1, 0, 0, 2, 1, 0, 0, 2, 3, 0, 0, 0, 1, 2, 3, 1, 3, 2, 0, 0})
	f.Add(int64(7), []byte{0, 2, 1, 1, 1, 4, 4, 0, 3, 4, 0, 0, 2, 1, 0, 1, 3, 0, 1, 0})
	f.Add(int64(10), []byte{2, 3, 3, 1, 2, 3, 3, 1, 3, 3, 0, 0, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g := spliceInput(seed)
		before, flat := g.Clone(), AppendFlat(nil, g)
		ref := listsOf(g)
		var b Batch
		var want []float64
		vertex := func(x byte) ID { return ref.ids[int(x)%len(ref.ids)] }
		for len(ops) >= 4 {
			o := ops[:4]
			ops = ops[4:]
			switch o[0] % 4 {
			case 0:
				id := ID(1000 + len(ref.ids))
				label := []string{"", "a", "c"}[o[1]%3]
				var props []string
				if o[2]%2 == 1 {
					props = []string{"p", "r"}[:1+int(o[3]%2)]
				}
				b.AddVertex(id, label, props)
				ref.ids, ref.labels = append(ref.ids, id), append(ref.labels, label)
				ref.props, ref.out = append(ref.props, props), append(ref.out, nil)
			case 1, 2:
				u, v := vertex(o[1]), vertex(o[2])
				label := []string{"", "x", "z"}[o[3]%3]
				b.AddEdge(u, v, float64(o[3]), label)
				ref.addEdge(u, v, float64(o[3]), label)
			case 3:
				u := vertex(o[1])
				out := ref.out[slices.Index(ref.ids, u)]
				if len(out) == 0 {
					continue
				}
				e := out[int(o[2])%len(out)]
				b.RemoveEdge(u, e.To, e.Label)
				want = append(want, ref.removeEdge(u, e.To, e.Label))
			}
		}
		got, removed, err := Splice(g, &b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(AppendFlat(nil, g), flat) || Diff(g, before) != nil {
			t.Fatal("Splice wrote the input graph")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("result not a valid graph: %v", err)
		}
		if err := Diff(ref.graph(), got); err != nil {
			t.Fatalf("result differs from the reference: %v", err)
		}
		if !slices.Equal(removed, want) {
			t.Fatalf("removed %v, reference %v", removed, want)
		}
		for l := int32(0); int(l) < got.NumLabels(); l++ {
			if id, ok := got.LabelID(got.LabelName(l)); !ok || id != l {
				t.Fatalf("label %d (%q) interns as %d", l, got.LabelName(l), id)
			}
		}
	})
}

// TestSpliceClones: a spliced graph's vertex arrays have room to grow, and
// two clones of it spliced apart keep their own new vertices.
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
}
