package seq_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/queries"
	"grape/internal/seq"
)

// labelledGraph draws a graph over the pattern library's vocabulary whose
// dense vertex order is not its ID order (IDs are sparse and inserted
// shuffled), with parallel edges and self loops — everything the
// neighbour-driven enumeration must order, dedupe or ignore by itself.
func labelledGraph(rng *rand.Rand, n, m int) *graph.Graph {
	vlabels := []string{gen.LabelPerson, gen.LabelPerson, gen.LabelProduct, "", ""}
	elabels := []string{gen.EdgeFollow, gen.EdgeRecommend, ""}
	ids := make([]graph.ID, n)
	for i := range ids {
		ids[i] = graph.ID(3*i + 1)
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	g := graph.New()
	for _, id := range ids {
		g.AddVertex(id, vlabels[rng.Intn(len(vlabels))])
	}
	for e := 0; e < m; e++ {
		u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
		g.AddLabeledEdge(u, v, 1, elabels[rng.Intn(len(elabels))])
		if rng.Intn(8) == 0 { // a parallel edge, perhaps under another label
			g.AddLabeledEdge(u, v, 1, elabels[rng.Intn(len(elabels))])
		}
	}
	return g
}

// checkSubIso holds SubIso to the reference scan on g, under no cap, two caps, and an anchor predicate on every pattern vertex in
// turn (with and without its index). An index re-roots the matching order at
// its anchor vertex: where that vertex opens the default order anyway
// (PEval's case) the embeddings must come in the reference's order, otherwise
// they are compared as sets — under a cap, as that many distinct embeddings
// of the uncapped reference. It returns the uncapped match count.
func checkSubIso(t *testing.T, p, g *graph.Graph) int {
	t.Helper()
	even := func(i int32) bool { return g.IDAt(i)%2 == 0 }
	var evenIdx []int32
	for _, i := range g.SortedIndices() {
		if even(i) {
			evenIdx = append(evenIdx, i)
		}
	}
	cases := []seq.SubIsoOptions{{}, {MaxMatches: 1}, {MaxMatches: 7}}
	for _, u := range p.SortedVertices() {
		cases = append(cases,
			seq.SubIsoOptions{AnchorAt: even, AnchorVar: u},
			seq.SubIsoOptions{AnchorAt: even, AnchorVar: u, MaxMatches: 7})
	}
	for _, opts := range cases {
		want := seq.SubIsoScan(p, g, opts)
		name := fmt.Sprintf("cap=%d anchored=%v var=%d", opts.MaxMatches, opts.AnchorAt != nil, opts.AnchorVar)
		if got, _ := seq.SubIso(p, g, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d matches %v, reference has %d %v", name, len(got), got, len(want), want)
		}
		if opts.AnchorAt == nil {
			continue
		}
		opts.AnchorIdx = evenIdx
		got, _ := seq.SubIso(p, g, opts)
		if opts.AnchorVar == seq.PatternOpener(p) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s with AnchorIdx: %d matches, reference has %d", name, len(got), len(want))
			}
			continue
		}
		uncapped := opts
		uncapped.MaxMatches = 0
		if !distinctWithin(got, seq.SubIsoScan(p, g, uncapped), len(want)) {
			t.Fatalf("%s with re-rooting AnchorIdx: %d matches %v are not %d distinct reference embeddings", name, len(got), got, len(want))
		}
	}
	return len(seq.SubIsoScan(p, g, seq.SubIsoOptions{}))
}

// distinctWithin reports whether got holds exactly n distinct embeddings,
// each one of all's.
func distinctWithin(got, all []seq.Match, n int) bool {
	in := make(map[string]bool, len(all))
	for _, m := range all {
		in[fmt.Sprint(m)] = true // fmt prints a map in key order
	}
	for _, m := range got {
		k := fmt.Sprint(m)
		if !in[k] {
			return false
		}
		delete(in, k)
	}
	return len(got) == n
}

// TestSubIsoMatchesReferenceScan: over random labelled graphs and every
// library pattern, the neighbour-driven enumeration returns the reference
// scan's embeddings in the reference scan's order.
func TestSubIsoMatchesReferenceScan(t *testing.T) {
	names := make([]string, 0)
	for name := range queries.Patterns() {
		names = append(names, name)
	}
	sort.Strings(names)
	found := make(map[string]int)
	for seed := int64(1); seed <= 6; seed++ {
		g := labelledGraph(rand.New(rand.NewSource(seed)), 24+4*int(seed), 300+60*int(seed))
		for _, name := range names {
			found[name] += checkSubIso(t, queries.Patterns()[name], g)
		}
	}
	for _, name := range names {
		if found[name] < 8 {
			t.Errorf("pattern %s: only %d embeddings over all graphs — the caps were never exercised", name, found[name])
		}
	}
}

// fuzzGraphs decodes a data graph and a pattern from fuzz bytes: two size
// bytes, a label byte per vertex, then (from, to, label) triples, the first
// few of which are the pattern's edges. Patterns may come out disconnected,
// with self loops or parallel edges.
func fuzzGraphs(data []byte) (p, g *graph.Graph) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	labels := []string{"", "a", "b"}
	np, ng := 1+next()%4, 2+next()%12
	build := func(n, edges int, id func(int) graph.ID) *graph.Graph {
		x := graph.New()
		for i := 0; i < n; i++ {
			x.AddVertex(id(i), labels[next()%3])
		}
		for e := 0; e < edges && len(data) >= 3; e++ {
			x.AddLabeledEdge(id(next()%n), id(next()%n), 1, labels[next()%3])
		}
		return x
	}
	p = build(np, 1+next()%5, func(i int) graph.ID { return graph.ID(i) })
	// descending IDs: dense order is the reverse of ID order
	g = build(ng, 64, func(i int) graph.ID { return graph.ID(100 - 7*i) })
	return p, g
}

func FuzzSubIsoEquivalence(f *testing.F) {
	f.Add([]byte{2, 5, 0, 0, 0, 3, 0, 1, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 0, 0})
	f.Add([]byte{3, 9, 1, 1, 2, 2, 0, 1, 1, 1, 2, 2, 1, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 1, 2, 2, 0, 1, 1, 3, 4, 1, 4, 5, 2, 5, 6, 1, 0, 1, 1})
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 0, 0})                                     // a self-loop pattern
	f.Add([]byte{4, 11, 0, 0, 0, 0, 1, 0, 1, 0})                                 // a disconnected pattern
	f.Add([]byte{2, 4, 1, 1, 2, 0, 1, 1, 0, 1, 2, 1, 1, 1, 1, 0, 1, 1, 0, 1, 2}) // parallel edges
	f.Fuzz(func(t *testing.T, data []byte) {
		p, g := fuzzGraphs(data)
		checkSubIso(t, p, g)
	})
}
