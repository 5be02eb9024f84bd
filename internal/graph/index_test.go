package graph

import (
	"reflect"
	"sync"
	"testing"
)

// chain returns a directed path over n vertices whose IDs ascend in
// dense order (step apart) or, with descending, fall; no vertex has a
// property.
func chain(n int, step ID, descending bool) *Graph {
	g := New()
	id := func(k int) ID {
		if descending {
			return ID(n-k) * step
		}
		return ID(k) * step
	}
	for k := 0; k+1 < n; k++ {
		g.AddLabeledEdge(id(k), id(k+1), float64(k)+0.5, []string{"", "x"}[k%2])
	}
	return g
}

// holdsIndex reports whether g holds an ID index, its own or built on lookup.
func holdsIndex(g *Graph) bool { return g.index != nil || g.lazy.index != nil }

// checkLookups resolves every vertex of g by ID.
func checkLookups(t *testing.T, name string, g *Graph) {
	t.Helper()
	for i, id := range g.Vertices() {
		if j, ok := g.Index(id); !ok || j != int32(i) {
			t.Fatalf("%s: Index(%d) = %d, %v; want %d", name, id, j, ok, i)
		}
	}
	if g.Has(-7) {
		t.Fatalf("%s: Has reports an absent vertex", name)
	}
}

// TestDerivedGraphsIndexOnFirstLookup: a cut and a decoded wire form (a
// frame's or a snapshot's) keep only their arrays — no ID map, no property
// column when nothing has a property — until something looks a vertex up by
// ID.
func TestDerivedGraphsIndexOnFirstLookup(t *testing.T) {
	src := chain(40, 3, false)
	sub := NewSubgraphBuilder(src).Subgraph([]int32{4, 5, 6, 7}, nil)
	dec, _, err := DecodeFlat(AppendFlat(nil, sub))
	if err != nil {
		t.Fatal(err)
	}
	falling := chain(40, 3, true)
	proven, _, err := DecodeFlatProven(AppendFlat(nil, falling), func(*Graph) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	derived := map[string]*Graph{"Subgraph": sub, "DecodeFlat": dec, "DecodeFlatProven": proven}
	for name, g := range derived {
		if holdsIndex(g) {
			t.Fatalf("%s: holds an ID index before any lookup", name)
		}
		if g.propOff != nil || g.propVals != nil {
			t.Fatalf("%s: holds a property column though no vertex has a property", name)
		}
	}
	for name, g := range derived {
		if err := Diff(map[string]*Graph{"Subgraph": sub, "DecodeFlat": sub, "DecodeFlatProven": falling}[name], g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkLookups(t, name, g)
		if g.index != nil || g.lazy.index == nil {
			t.Fatalf("%s: the first lookup did not build the shared index", name)
		}
	}
	// IDs that do not ascend leave DecodeFlat no linear proof: it builds the
	// index to reject repeats, and keeps it for the first lookup.
	if fall, _, err := DecodeFlat(AppendFlat(nil, falling)); err != nil || !holdsIndex(fall) {
		t.Fatalf("DecodeFlat of falling IDs: err %v, index held %v", err, err == nil && holdsIndex(fall))
	}
}

// TestFrozenCloneSharesIndex: clones share the index built on first lookup,
// whichever of them looks first; a clone that is spliced builds a map of its
// own, and the original's lookups are untouched by what it adds.
func TestFrozenCloneSharesIndex(t *testing.T) {
	g := NewSubgraphBuilder(chain(30, 2, false)).Subgraph([]int32{3, 4, 5, 6, 7, 8}, nil)
	a, b := g.Clone(), g.Clone()
	checkLookups(t, "clone", a)
	if !holdsIndex(g) || !holdsIndex(b) || reflect.ValueOf(g.lazy.index).Pointer() != reflect.ValueOf(a.lazy.index).Pointer() {
		t.Fatal("clones do not share the index built on first lookup")
	}
	shared := len(g.lazy.index)

	b.AddVertex(1000, "new")
	b.AddLabeledEdge(g.IDAt(0), 1000, 1, "")
	if b.index == nil || !b.Has(1000) {
		t.Fatal("AddVertex on a clone did not splice it onto its own index")
	}
	if g.Has(1000) || a.Has(1000) || len(g.lazy.index) != shared {
		t.Fatal("splicing a clone wrote into the shared index")
	}
	checkLookups(t, "original", g)
	checkLookups(t, "sibling", a)
	if len(g.Out(g.IDAt(0))) != len(b.Out(g.IDAt(0)))-1 {
		t.Fatal("the clone's new edge shows in the original")
	}
}

// TestPropsFromNilHeaders: properties set on a graph that holds no property
// column survive splices and the wire form — Subgraph → AppendFlat →
// DecodeFlat → AddVertex/SetProps/AddProp — equal to the same graph built by
// a Builder; and Builder.Graph drops a list with nothing in it.
func TestPropsFromNilHeaders(t *testing.T) {
	sub := NewSubgraphBuilder(chain(20, 5, false)).Subgraph([]int32{2, 3, 4}, nil)
	dec, _, err := DecodeFlat(AppendFlat(nil, sub))
	if err != nil {
		t.Fatal(err)
	}
	first, last := dec.IDAt(0), dec.IDAt(int32(dec.NumVertices()-1))
	mutate := func(g *Graph) {
		g.AddVertex(999, "fresh")
		g.SetProps(first, []string{"db", "graph"})
		g.AddProp(last, "ml")
		g.AddProp(999, "sys")
	}
	mutate(dec)

	wb := NewBuilder()
	for _, id := range sub.Vertices() {
		wb.AddVertex(id, sub.Label(id))
	}
	for _, id := range sub.Vertices() {
		for _, e := range sub.Out(id) {
			wb.AddLabeledEdge(id, e.To, e.W, e.Label)
		}
	}
	want := wb.Graph()
	mutate(want)
	if err := Diff(want, dec); err != nil {
		t.Fatal(err)
	}
	again, _, err := DecodeFlat(AppendFlat(nil, dec))
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(want, again); err != nil {
		t.Fatalf("after a second round trip: %v", err)
	}
	if !reflect.DeepEqual(again.Props(first), []string{"db", "graph"}) || again.Props(sub.IDAt(1)) != nil {
		t.Fatalf("props %v / %v", again.Props(first), again.Props(sub.IDAt(1)))
	}

	bare, _, err := DecodeFlat(AppendFlat(nil, sub))
	if err != nil {
		t.Fatal(err)
	}
	bare.AddProp(first, "kw")
	if !reflect.DeepEqual(bare.Props(first), []string{"kw"}) || bare.Validate() != nil {
		t.Fatal("AddProp on a graph without headers")
	}

	empty := NewBuilder()
	empty.AddVertex(1, "")
	empty.SetProps(1, []string{})
	if empty.Graph().propOff != nil {
		t.Fatal("Builder.Graph kept a property list with nothing in it")
	}
}

// TestConcurrentFirstIndex: eight goroutines race to make the first by-ID
// lookup on one shared fragment and its clone. Run under -race.
func TestConcurrentFirstIndex(t *testing.T) {
	frag := NewSubgraphBuilder(chain(200, 7, false)).Subgraph([]int32{10, 11, 12, 13, 14, 15, 16, 17}, nil)
	clone := frag.Clone()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		g := frag
		if r%2 == 1 {
			g = clone
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, id := range g.Vertices() {
				if j, ok := g.Index(id); !ok || j != int32(i) {
					t.Errorf("Index(%d) = %d, %v; want %d", id, j, ok, i)
					return
				}
				_ = g.Out(id)
			}
		}()
	}
	wg.Wait()
}
