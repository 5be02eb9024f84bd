package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// spliceInput draws a graph from seed: sparse IDs, a few vertex and edge
// labels, properties on some vertices, parallel edges and self-loops. Seeds
// 2 and 3 mod 4 draw an undirected graph. Odd seeds go through the wire form,
// so the graph has no ID index of its own (as a cut fragment has none).
// Seeds 4 to 7 mod 8 draw 64 to 159 vertices, so a patch spans chunks and a
// small batch patches without folding; the rest draw at most 12.
func spliceInput(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewBuilder()
	if seed&2 != 0 {
		g = NewUndirectedBuilder()
	}
	nv := 1 + rng.Intn(12)
	if seed&4 != 0 {
		nv = 64 + rng.Intn(96)
	}
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

// sameEdges reports whether two packed edge lists of graphs with the same
// dense order hold the same edges: targets, weight bits and label names.
func sameEdges(ga *Graph, a []DenseEdge, gb *Graph, b []DenseEdge) bool {
	return slices.EqualFunc(a, b, func(x, y DenseEdge) bool {
		return x.To == y.To && math.Float64bits(x.W) == math.Float64bits(y.W) && ga.LabelName(x.Label) == gb.LabelName(y.Label)
	})
}

// checkSpliced holds got to want, a Builder-built graph of the same edges:
// OutAt (through Diff), InAt, OutCSR, InCSR, UpCSR, and the wire form, which
// must decode to want and to a graph — flat, as every decoded one is — whose
// wire form is the same bytes.
func checkSpliced(t *testing.T, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("result not a valid graph: %v", err)
	}
	if err := Diff(want, got); err != nil {
		t.Fatalf("result differs from the reference: %v", err)
	}
	for i := range int32(got.NumVertices()) {
		if !sameEdges(got, got.InAt(i), want, want.InAt(i)) || got.InDegreeAt(i) != want.InDegreeAt(i) {
			t.Fatalf("vertex %d: in-edges %v, reference %v", got.IDAt(i), got.InAt(i), want.InAt(i))
		}
	}
	for _, csr := range []func(*Graph) ([]int32, []DenseEdge){(*Graph).OutCSR, (*Graph).InCSR} {
		off, dense := csr(got)
		woff, wdense := csr(want)
		if !slices.Equal(off, woff) || !sameEdges(got, dense, want, wdense) {
			t.Fatalf("flat CSR differs from the reference")
		}
	}
	off, adj := got.UpCSR()
	woff, wadj := want.UpCSR()
	if !slices.Equal(off, woff) || !slices.Equal(adj, wadj) {
		t.Fatalf("UpCSR differs from the reference")
	}
	flat := AppendFlat(nil, got)
	dec, _, err := DecodeFlat(flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(want, dec); err != nil {
		t.Fatalf("decoded wire form differs from the reference: %v", err)
	}
	if !bytes.Equal(AppendFlat(nil, dec), flat) {
		t.Fatalf("wire form differs from the decoded graph's")
	}
	for l := int32(0); int(l) < got.NumLabels(); l++ {
		if id, ok := got.LabelID(got.LabelName(l)); !ok || id != l {
			t.Fatalf("label %d (%q) interns as %d", l, got.LabelName(l), id)
		}
	}
}

// FuzzSplice holds Splice to an oracle that applies each batch to the graph's
// edge lists and builds the result with a Builder: a random graph, directed
// or not, and up to 8 batches drawn from the fuzzer's bytes, each spliced
// into the last result — new vertices with labels and properties, insertions
// with new labels, parallel edges and self-loops, deletions of old edges and
// of the batch's own insertions. Every result is checked whole after its
// batch (checkSpliced), and every earlier graph must still read as it did:
// its wire form and its in-edges, read after it was spliced. An op is four
// bytes; kind 4 ends a batch.
func FuzzSplice(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add(int64(2), []byte{2, 5, 5, 1, 3, 5, 0, 0, 0, 9, 1, 4, 1, 9, 0, 2, 3, 9, 0, 0})
	f.Add(int64(3), []byte{3, 0, 0, 0, 3, 0, 1, 0, 3, 1, 0, 0, 1, 2, 4, 6})
	f.Add(int64(4), []byte{})
	f.Add(int64(6), []byte{1, 0, 0, 2, 1, 0, 0, 2, 3, 0, 0, 0, 1, 2, 3, 1, 3, 2, 0, 0})
	f.Add(int64(7), []byte{0, 2, 1, 1, 1, 4, 4, 0, 3, 4, 0, 0, 2, 1, 0, 1, 3, 0, 1, 0})
	f.Add(int64(10), []byte{2, 3, 3, 1, 2, 3, 3, 1, 3, 3, 0, 0, 3, 3, 0, 0})
	// Chains over 83 to 156 vertices. Seed 12: a patch with the reverse CSR
	// handed on, a fold, a patch over the folded arrays.
	f.Add(int64(12), []byte{1, 1, 2, 0, 4, 0, 0, 0, 1, 3, 4, 0, 1, 5, 6, 0, 1, 7, 8, 0, 1, 9, 10, 0, 1, 11, 12, 0, 1, 13, 14, 0, 1, 15, 16, 0, 1, 17, 18, 0, 1, 19, 20, 1, 4, 0, 0, 0, 3, 1, 0, 0, 1, 100, 2, 2})
	// Seed 5: vertices appended to a decoded graph, with no ID index of its
	// own, over three batches, the third folding.
	f.Add(int64(5), []byte{0, 1, 1, 0, 1, 0, 140, 1, 2, 140, 3, 2, 4, 0, 0, 0, 0, 2, 0, 1, 1, 141, 141, 0, 1, 70, 141, 1, 4, 0, 0, 0, 0, 0, 0, 0, 1, 142, 11, 1, 1, 12, 13, 1, 1, 14, 15, 1, 1, 16, 17, 1, 1, 18, 19, 1, 1, 20, 21, 1, 1, 22, 23, 1, 1, 24, 25, 1, 1, 26, 27, 1, 4, 0, 0, 0, 3, 140, 0, 0})
	// Seed 14: undirected self-loops patched in, then folded.
	f.Add(int64(14), []byte{1, 3, 3, 1, 1, 3, 3, 2, 4, 0, 0, 0, 1, 1, 2, 0, 1, 3, 4, 0, 1, 5, 6, 0, 1, 7, 8, 0, 1, 9, 10, 0, 1, 11, 12, 0, 1, 13, 14, 0, 1, 15, 16, 0, 1, 17, 18, 0, 4, 0, 0, 0, 3, 3, 0, 0, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g := spliceInput(seed)
		if seed&8 != 0 {
			g.InAt(0) // the first splice hands on a derived reverse CSR
		}
		ref := listsOf(g)
		type earlier struct {
			g    *Graph
			flat []byte
			in   [][]DenseEdge
		}
		var seen []earlier
		remember := func(g *Graph) {
			e := earlier{g: g, flat: AppendFlat(nil, g)}
			for i := range int32(g.NumVertices()) {
				e.in = append(e.in, slices.Clone(g.InAt(i)))
			}
			seen = append(seen, e)
		}
		remember(g)
		var b Batch
		var want []float64
		vertex := func(x byte) ID { return ref.ids[int(x)%len(ref.ids)] }
		for batches := 0; batches < 8; {
			var o []byte
			if len(ops) >= 4 {
				o, ops = ops[:4], ops[4:]
			}
			if o == nil || o[0]%5 == 4 { // the batch ends
				got, removed, err := Splice(g, &b)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(removed, want) {
					t.Fatalf("batch %d removed %v, reference %v", batches, removed, want)
				}
				checkSpliced(t, got, ref.graph())
				for k, e := range seen {
					if !bytes.Equal(AppendFlat(nil, e.g), e.flat) {
						t.Fatalf("batch %d changed the wire form of graph %d", batches, k)
					}
					for i, in := range e.in {
						if !slices.Equal(e.g.InAt(int32(i)), in) {
							t.Fatalf("batch %d changed the in-edges of vertex %d of graph %d", batches, i, k)
						}
					}
				}
				remember(got)
				g, b, want = got, Batch{}, nil
				batches++
				if o == nil {
					break
				}
				continue
			}
			switch o[0] % 5 {
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
