package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// The reference cut: the fragment cut as a graph.Builder spells it — one
// AddVertex/AddLabeledEdge per copied vertex and edge, a map of copies, a
// placement map, a hash per vertex to find every dense index — which is how
// Build worked before it became a CSR-to-CSR gather. It survives here,
// and only here, as the ground truth the equivalence suite holds Build to:
// same fragment frames byte for byte, same hosts for every vertex.

// refLayout is what the reference cut produces: the fragments, and by
// fragment the inner vertices, outer copies and inner border vertices by ID,
// ascending.
type refLayout struct {
	frags                     []*Fragment
	inner, outer, innerBorder [][]graph.ID
	placement                 map[graph.ID][]int // border vertex -> sorted hosts
	asg                       *Assignment
}

func (r *refLayout) hosts(id graph.ID) []int {
	if hs, ok := r.placement[id]; ok {
		return hs
	}
	return []int{r.asg.Owner(id)}
}

func newLocal(g *graph.Graph) *graph.Builder {
	if g.Directed() {
		return graph.NewBuilder()
	}
	return graph.NewUndirectedBuilder()
}

func copyVertex(dst *graph.Builder, src *graph.Graph, id graph.ID) {
	dst.AddVertex(id, src.Label(id))
	if ps := src.Props(id); len(ps) > 0 {
		dst.SetProps(id, append([]string(nil), ps...))
	}
}

// referenceBuild is the edge-cut: inner vertices in ascending-ID order with
// all their out-edges, remote endpoints as outer copies on first sight.
func referenceBuild(g *graph.Graph, asg *Assignment) *refLayout {
	frags := make([]*Fragment, asg.N)
	locals := make([]*graph.Builder, asg.N)
	inner, outer := make([][]graph.ID, asg.N), make([][]graph.ID, asg.N)
	for i := range frags {
		frags[i], locals[i] = &Fragment{Index: i}, newLocal(g)
	}
	for _, id := range g.SortedVertices() {
		w := asg.Owner(id)
		copyVertex(locals[w], g, id)
		inner[w] = append(inner[w], id)
	}
	for _, u := range g.SortedVertices() {
		uo := asg.Owner(u)
		for _, e := range g.Out(u) {
			if !g.Directed() && u > e.To && asg.Owner(e.To) == uo {
				continue // undirected intra-fragment edge already added via the lower endpoint
			}
			if asg.Owner(e.To) != uo && !slices.Contains(outer[uo], e.To) {
				copyVertex(locals[uo], g, e.To)
				outer[uo] = append(outer[uo], e.To)
			}
			locals[uo].AddLabeledEdge(u, e.To, e.W, e.Label)
		}
	}
	return referenceFinish(frags, locals, inner, outer, asg)
}

// referenceBuildExpanded is the d-hop data-shipping cut: each fragment is the
// subgraph induced by everything within d hops, either direction, of its
// inner vertices, in the source's dense order.
func referenceBuildExpanded(g *graph.Graph, asg *Assignment, d int) *refLayout {
	frags := make([]*Fragment, asg.N)
	inner, outer := make([][]graph.ID, asg.N), make([][]graph.ID, asg.N)
	for i := range frags {
		region := make(map[graph.ID]bool)
		for _, id := range g.Vertices() {
			if asg.Owner(id) == i {
				region[id] = true
			}
		}
		frontier := region
		for hop := 0; hop < d; hop++ {
			next := make(map[graph.ID]bool)
			for u := range frontier {
				for _, es := range [2][]graph.Edge{g.Out(u), g.In(u)} {
					for _, e := range es {
						if !region[e.To] {
							next[e.To] = true
						}
					}
				}
			}
			for v := range next {
				region[v] = true
			}
			frontier = next
		}
		local := newLocal(g)
		for _, id := range g.Vertices() {
			if region[id] {
				copyVertex(local, g, id)
			}
		}
		for _, u := range g.Vertices() {
			for _, e := range g.Out(u) {
				if region[u] && region[e.To] && (g.Directed() || u <= e.To) {
					local.AddLabeledEdge(u, e.To, e.W, e.Label)
				}
			}
		}
		f := &Fragment{Index: i, G: local.Graph()}
		for _, id := range f.G.SortedVertices() {
			if asg.Owner(id) == i {
				inner[i] = append(inner[i], id)
			} else {
				outer[i] = append(outer[i], id)
			}
		}
		frags[i] = f
	}
	return referenceFinish(frags, nil, inner, outer, asg)
}

// referenceFinish does the border bookkeeping from the fragments' outer
// lists, builds the subgraphs still in locals and fills in the dense tables
// by hashing.
func referenceFinish(frags []*Fragment, locals []*graph.Builder, inner, outer [][]graph.ID, asg *Assignment) *refLayout {
	r := &refLayout{frags: frags, inner: inner, outer: outer, innerBorder: make([][]graph.ID, asg.N), placement: make(map[graph.ID][]int), asg: asg}
	for i := range frags {
		slices.Sort(outer[i])
		for _, v := range outer[i] {
			r.placement[v] = append(r.placement[v], i)
		}
	}
	for v, hosts := range r.placement {
		owner := asg.Owner(v)
		r.innerBorder[owner] = append(r.innerBorder[owner], v)
		r.placement[v] = append(hosts, owner)
		sort.Ints(r.placement[v])
	}
	for i, f := range frags {
		slices.Sort(r.innerBorder[i])
		if locals != nil {
			f.G = locals[i].Graph()
		}
		f.n = asg.N
		for _, id := range inner[i] {
			i, _ := f.G.Index(id)
			f.innerIdx = append(f.innerIdx, i)
		}
		for _, id := range f.G.Vertices() {
			f.owners = append(f.owners, int32(asg.Owner(id)))
		}
		for _, id := range slices.Sorted(slices.Values(slices.Concat(outer[i], r.innerBorder[i]))) {
			i, _ := f.G.Index(id)
			f.borderIdx = append(f.borderIdx, i)
		}
		f.sorted = len(f.borderIdx)
	}
	return r
}

// hostsOf lists the fragments hosting id, ascending — its owner, plus every
// copy holder if the layout gave it a slot — and nothing for a vertex the
// graph does not have.
func hostsOf(l *Layout, id graph.ID) []int {
	s, border := l.SlotOf(id)
	if !border {
		if l.Asg.G.Has(id) {
			return []int{l.Asg.Owner(id)}
		}
		return nil
	}
	var out []int
	for _, h := range l.SlotHosts(s) {
		out = append(out, int(h.Frag))
	}
	return out
}

// checkAgainstReference holds a layout to the reference cut of the same
// graph: every fragment frame byte-identical, the same hosts everywhere.
func checkAgainstReference(t testing.TB, what string, l *Layout, ref *refLayout) {
	t.Helper()
	if len(l.Fragments) != len(ref.frags) {
		t.Fatalf("%s: %d fragments, reference has %d", what, len(l.Fragments), len(ref.frags))
	}
	for i, f := range l.Fragments {
		if err := f.G.Validate(); err != nil {
			t.Fatalf("%s fragment %d: %v", what, i, err)
		}
		rf := ref.frags[i]
		if err := graph.Diff(f.G, rf.G); err != nil {
			t.Fatalf("%s fragment %d: %v", what, i, err)
		}
		if in, out, ib := innerIDs(f), outerIDs(f), innerBorderIDs(f); !slices.Equal(in, ref.inner[i]) || !slices.Equal(out, ref.outer[i]) || !slices.Equal(ib, ref.innerBorder[i]) {
			t.Fatalf("%s fragment %d: vertex lists differ:\n got inner %v outer %v border %v\nwant inner %v outer %v border %v",
				what, i, in, out, ib, ref.inner[i], ref.outer[i], ref.innerBorder[i])
		}
		if got, want := AppendFragment(nil, f), AppendFragment(nil, rf); !bytes.Equal(got, want) {
			t.Fatalf("%s fragment %d: frame differs from the reference cut's (%d vs %d bytes)", what, i, len(got), len(want))
		}
	}
	for _, id := range ref.asg.G.Vertices() {
		if got, want := hostsOf(l, id), ref.hosts(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Hosts(%d) = %v, reference %v", what, id, got, want)
		}
	}
	checkBorderIndex(t, what, l)
}

// checkBorderIndex holds a layout's slot index to itself: slots ascend with
// vertex ID as far as the cut numbered them, every (fragment, index) pair of a
// slot names the slot's vertex in that fragment's graph, every fragment hosts
// a slot once, and every border position of every fragment maps to the slot
// that maps back to it.
func checkBorderIndex(t testing.TB, what string, l *Layout) {
	t.Helper()
	positions := 0
	for s := int32(0); int(s) < l.Slots(); s++ {
		id, hs := l.SlotID(s), l.SlotHosts(s)
		if int(s) > 0 && int(s) < l.CutSlots() && l.SlotID(s-1) >= id {
			t.Fatalf("%s: slot %d stands for vertex %d, slot %d for %d: not ascending", what, s-1, l.SlotID(s-1), s, id)
		}
		if got, ok := l.SlotOf(id); !ok || got != s {
			t.Fatalf("%s: slot %d stands for vertex %d, whose slot is %d (%v)", what, s, id, got, ok)
		}
		if len(hs) < 2 {
			t.Fatalf("%s: slot %d (vertex %d) has hosts %v: not a border vertex", what, s, id, hs)
		}
		for k, h := range hs {
			f := l.Fragments[h.Frag]
			if k > 0 && hs[k-1].Frag >= h.Frag {
				t.Fatalf("%s: hosts of slot %d not ascending: %v", what, s, hs)
			}
			if f.G.IDAt(h.At) != id {
				t.Fatalf("%s: slot %d is vertex %d, but fragment %d keeps %d at index %d", what, s, id, h.Frag, f.G.IDAt(h.At), h.At)
			}
			p, ok := f.BorderPos(id)
			if !ok || f.Slots()[p] != s || f.BorderIndices()[p] != h.At {
				t.Fatalf("%s: fragment %d: vertex %d at border position %d (%v) does not map back to slot %d, index %d", what, h.Frag, id, p, ok, s, h.At)
			}
		}
		positions += len(hs)
	}
	for _, f := range l.Fragments {
		if len(f.Slots()) != len(f.BorderIndices()) {
			t.Fatalf("%s: fragment %d: %d border positions, %d slots", what, f.Index, len(f.BorderIndices()), len(f.Slots()))
		}
		positions -= len(f.BorderIndices())
	}
	if positions != 0 {
		t.Fatalf("%s: slots list %d more hosts than the fragments have border positions", what, positions)
	}
}

// checkCuts runs Build and BuildExpanded (d ∈ {1, 2}) on g and holds all
// three layouts to the reference cuts.
func checkCuts(t testing.TB, name string, g *graph.Graph, s Strategy, n int) {
	t.Helper()
	asg, err := s.Partition(g, n)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkAgainstReference(t, name, Build(g, asg), referenceBuild(g, asg))
	for d := 1; d <= 2; d++ {
		checkAgainstReference(t, fmt.Sprintf("%s d=%d", name, d), BuildExpanded(g, asg, d), referenceBuildExpanded(g, asg, d))
	}
}

// rebuilt builds g again from nothing with a Builder: its vertices in dense
// order, then each vertex's out-edges — an undirected edge once, from its
// earlier endpoint in dense order, and a self-loop once for its two stored
// copies. That reproduces every adjacency list of a graph whose undirected
// edges were added from their earlier endpoint, as gen.Ratings adds them.
func rebuilt(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	if !g.Directed() {
		b = graph.NewUndirectedBuilder()
	}
	for i, id := range g.Vertices() {
		b.AddVertex(id, g.LabelAt(int32(i)))
		if ps := g.PropsAt(int32(i)); len(ps) > 0 {
			b.SetProps(id, ps)
		}
	}
	for i, u := range g.Vertices() {
		loops := 0
		for _, e := range g.OutAt(int32(i)) {
			switch {
			case g.Directed() || e.To > int32(i):
			case e.To == int32(i):
				if loops++; loops%2 == 0 {
					continue // the second stored copy
				}
			default:
				continue // added from its earlier endpoint
			}
			b.AddLabeledEdge(u, g.IDAt(e.To), e.W, g.LabelName(e.Label))
		}
	}
	return b.Graph()
}

// awkwardGraph draws a small graph with everything a cut can trip over:
// sparse IDs inserted in shuffled order (unless ascending), vertex and edge
// labels, properties, self-loops, parallel edges and isolated vertices.
func awkwardGraph(seed int64, directed, ascending bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	if !directed {
		g = graph.NewUndirected()
	}
	nv := 5 + rng.Intn(40)
	ids := make([]graph.ID, nv)
	for i := range ids {
		ids[i] = graph.ID(i*7 + rng.Intn(7))
	}
	if !ascending {
		rng.Shuffle(nv, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	vlabels, elabels := []string{"", "person", "product"}, []string{"", "follows", "likes", "buys"}
	for _, id := range ids {
		g.AddVertex(id, vlabels[rng.Intn(len(vlabels))])
		for k := rng.Intn(3); k > 0; k-- {
			g.AddProp(id, fmt.Sprintf("kw%d", rng.Intn(5)))
		}
	}
	linked := ids[:nv-nv/5] // the rest stay isolated
	for k := rng.Intn(4 * nv); k > 0; k-- {
		u, v := linked[rng.Intn(len(linked))], linked[rng.Intn(len(linked))] // u == v: a self-loop
		for c := 1 + rng.Intn(2); c > 0; c-- {                               // twice: a parallel edge
			g.AddLabeledEdge(u, v, float64(1+rng.Intn(9)), elabels[rng.Intn(len(elabels))])
		}
	}
	return g
}

// TestBuildMatchesReferenceCut: Build and BuildExpanded against the reference
// cut, over awkward graphs × every strategy × n ∈ {1, 3, 8, > |V|}, plus the
// generators' graphs under Hash.
func TestBuildMatchesReferenceCut(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, s := range Strategies() {
			for _, n := range []int{1, 3, 8, 64} {
				g := awkwardGraph(seed, seed%2 == 0, seed%3 == 0)
				checkCuts(t, fmt.Sprintf("seed %d %s n=%d", seed, s.Name(), n), g, s, n)
			}
		}
	}
	for name, g := range map[string]*graph.Graph{
		"road":     gen.RoadGrid(12, 17, 3),
		"social":   gen.PreferentialAttachment(300, 4, 5),
		"commerce": gen.SocialCommerce(gen.SocialCommerceConfig{People: 200, Products: 5, Follows: 4, AdoptP: 0.7, Seed: 2}),
		"ratings":  gen.Ratings(gen.RatingsConfig{Users: 80, Items: 20, RatingsPerUser: 6, Factors: 3, Noise: 0.1, Seed: 4}),
	} {
		for _, n := range []int{1, 3, 8} {
			checkCuts(t, fmt.Sprintf("%s n=%d", name, n), g, Hash{}, n)
		}
	}
}

// FuzzBuildEquivalence lets the fuzzer pick the graph, the strategy and the
// fragment count.
func FuzzBuildEquivalence(f *testing.F) {
	f.Add(int64(1), true, false, uint8(0), uint8(3))
	f.Add(int64(2), false, true, uint8(5), uint8(8))
	f.Add(int64(3), false, false, uint8(2), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, directed, ascending bool, strategy, n uint8) {
		ss := Strategies()
		checkCuts(t, "fuzz", awkwardGraph(seed, directed, ascending), ss[int(strategy)%len(ss)], 1+int(n))
	})
}

// TestBuildFrozenEquivalence: Build over a generator's graph and over the
// same graph rebuilt by a Builder must produce identical layouts — same
// fragment graphs in the same dense order (graph.Diff compares exact
// adjacency order), same Inner/Outer/InnerBorder, same hosts.
func TestBuildFrozenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadGrid(12, 17, 3)},
		{"social", gen.PreferentialAttachment(300, 4, 5)},
		{"commerce", gen.SocialCommerce(gen.SocialCommerceConfig{People: 200, Products: 5, Follows: 4, AdoptP: 0.7, Seed: 2})},
		{"ratings-undirected", gen.Ratings(gen.RatingsConfig{Users: 80, Items: 20, RatingsPerUser: 6, Factors: 3, Noise: 0.1, Seed: 4})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			again := rebuilt(tc.g)
			if err := graph.Diff(tc.g, again); err != nil {
				t.Fatalf("rebuilt graph differs: %v", err)
			}
			for _, n := range []int{1, 3, 8} {
				asg, err := Hash{}.Partition(tc.g, n)
				if err != nil {
					t.Fatal(err)
				}
				lf := Build(tc.g, asg)
				lt := Build(again, &Assignment{G: again, N: asg.N, owner: asg.owner})
				for _, id := range tc.g.Vertices() {
					if !reflect.DeepEqual(hostsOf(lf, id), hostsOf(lt, id)) {
						t.Fatalf("n=%d: hosts of %d differ", n, id)
					}
				}
				for i := range lf.Fragments {
					ff, ft := lf.Fragments[i], lt.Fragments[i]
					if !slices.Equal(innerIDs(ff), innerIDs(ft)) ||
						!slices.Equal(outerIDs(ff), outerIDs(ft)) ||
						!slices.Equal(innerBorderIDs(ff), innerBorderIDs(ft)) {
						t.Fatalf("n=%d fragment %d: vertex lists differ", n, i)
					}
					if err := graph.Diff(ff.G, ft.G); err != nil {
						t.Fatalf("n=%d fragment %d: dense order or adjacency changed: %v", n, i, err)
					}
					if err := ff.G.Validate(); err != nil {
						t.Fatalf("n=%d fragment %d: %v", n, i, err)
					}
				}
			}
		})
	}
}

// TestBuildAllocationBudget: the cut allocates per fragment, not per vertex
// or per edge — the same budget holds on a road grid four times the size
// (what still grows is inside the ID index: a Go map adds a table per ~900
// entries).
func TestBuildAllocationBudget(t *testing.T) {
	for _, side := range []int{48, 96} {
		g := gen.RoadGrid(side, side, 1)
		asg, err := TwoD{Cols: side}.Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() { Build(g, asg) }); n > 200 {
			t.Errorf("road %d×%d, 8 fragments: Build allocates %v times, budget 200", side, side, n)
		} else {
			t.Logf("road %d×%d: %v allocations", side, side, n)
		}
	}
}

// TestBuildAllocatedBytes pins what one cut of the 96×96 road grid into 8
// fragments allocates: exact-size CSR arrays, dense tables and the cut's
// scratch (1.15 MB), and no ID index (≈ 0.32 MB), property storage (≈ 0.24
// MB of list headers) or ID lists and inner bitmap (≈ 0.11 MB) per fragment —
// 1.93 MB when every fragment held all three.
func TestBuildAllocatedBytes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation is instrumented under -race")
	}
	g := gen.RoadGrid(96, 96, 1)
	asg, err := TwoD{Cols: 96}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	Build(g, asg) // the source's ascending-ID order is derived once, on the first cut
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		Build(g, asg)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6; mb > 1.2 {
		t.Errorf("Build allocates %.3f MB per cut, budget 1.2", mb)
	} else {
		t.Logf("%.3f MB per cut", mb)
	}
}

// TestGraphRetainsNoEdgeCopies: every strategy, EdgeCut, BorderCount,
// BuildExpanded and an update stream walk a graph's CSR. What the graph keeps
// afterwards is its reverse CSR (16 B per edge) and per-vertex views, not an
// ID-keyed copy of its adjacency (32 B per edge and direction).
func TestGraphRetainsNoEdgeCopies(t *testing.T) {
	if raceDetector {
		t.Skip("allocation is instrumented under -race")
	}
	g := gen.PreferentialAttachment(10000, 5, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range Strategies() {
		asg, err := s.Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = asg.EdgeCut(), asg.BorderCount()
		BuildExpanded(g, asg, 1)
	}
	gen.UpdateStream(g, gen.StreamConfig{Batches: 4, BatchSize: 16, DeleteP: 0.5, Seed: 1})
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEdge := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(g.NumEdges())
	runtime.KeepAlive(g)
	if perEdge > 24 {
		t.Fatalf("the graph gained %.1f B per edge, budget 24", perEdge)
	}
	t.Logf("the graph gained %.1f B per edge", perEdge)
}

// TestFragmentsHoldAPropertyColumn: a fragment keeps its vertices'
// properties as one column — a 4-byte offset per vertex and the values'
// 16-byte string headers — not a 24-byte list header per vertex. The
// keyword-decorated social graph (about one vertex in ten has a keyword) is
// hash-cut into 8 fragments at hops 0 and 1, and what its layout retains
// beyond the same cut of the undecorated graph is held to 6 B per fragment
// vertex plus 16 B per value.
func TestFragmentsHoldAPropertyColumn(t *testing.T) {
	if raceDetector {
		t.Skip("allocation is instrumented under -race")
	}
	plain := gen.PreferentialAttachment(10000, 5, 1)
	kw := gen.PreferentialAttachment(10000, 5, 1)
	gen.AttachKeywords(kw, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	asg, err := Hash{}.Partition(plain, 8) // hash places by ID: one assignment fits both
	if err != nil {
		t.Fatal(err)
	}
	cut := func(g *graph.Graph, hops int) *Layout {
		if hops == 0 {
			return Build(g, asg)
		}
		return BuildExpanded(g, asg, hops)
	}
	retained := func(g *graph.Graph, hops int) (int64, *Layout) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l := cut(g, hops)
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), l
	}
	for hops := range 2 {
		cut(plain, hops) // each source derives its views on its first cut
		cut(kw, hops)
		base, pl := retained(plain, hops)
		with, l := retained(kw, hops)
		verts, values := 0, 0
		for _, f := range l.Fragments {
			verts += f.G.NumVertices()
			for i := range int32(f.G.NumVertices()) {
				values += len(f.G.PropsAt(i))
			}
		}
		runtime.KeepAlive(pl)
		extra, budget := with-base, int64(6*verts+16*values)
		t.Logf("hops %d: %d fragment vertices, %d values: properties take %d B (%.1f B per vertex beyond 16 B per value), budget %d",
			hops, verts, values, extra, float64(extra-int64(16*values))/float64(verts), budget)
		if extra > budget {
			t.Errorf("hops %d: the fragments' properties take %d B, budget %d (6 B per vertex, 16 B per value)", hops, extra, budget)
		}
	}
}

// TestFragmentsKeepNoIDCopies: a fragment names its vertices by dense index
// of its graph, whose ID column is the only copy of their IDs. What a layout
// keeps beyond its fragments' graphs is a 4 B owner and at most a 4 B inner
// index per vertex, and per border position a 4 B index, a 4 B slot and an
// 8 B host entry; it is held to 12 B per fragment vertex beyond 16 B per
// border position, for Build and BuildExpanded on a hash-cut social graph
// (almost every fragment vertex is on the border) and a 2d-cut road grid
// (few are). A fragment that also listed its vertex and border IDs kept
// 21–28 B per vertex here.
func TestFragmentsKeepNoIDCopies(t *testing.T) {
	if raceDetector {
		t.Skip("allocation is instrumented under -race")
	}
	social := gen.PreferentialAttachment(10000, 5, 1)
	road := gen.RoadGrid(96, 96, 1)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		s    Strategy
	}{{"social/hash", social, Hash{}}, {"road/2d", road, TwoD{Cols: 96}}} {
		asg, err := tc.s.Partition(tc.g, 8)
		if err != nil {
			t.Fatal(err)
		}
		for hops := range 2 {
			cut := func() *Layout {
				if hops == 0 {
					return Build(tc.g, asg)
				}
				return BuildExpanded(tc.g, asg, hops)
			}
			cut() // the source derives its views on its first cut
			graphs := make([]*graph.Graph, asg.N)
			var before, with, without runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			l := cut()
			verts, border := 0, 0
			for i, f := range l.Fragments {
				graphs[i] = f.G
				verts += f.G.NumVertices()
				border += len(f.BorderIndices())
			}
			runtime.GC()
			runtime.ReadMemStats(&with)
			runtime.KeepAlive(l)
			l = nil
			runtime.GC()
			runtime.ReadMemStats(&without)
			runtime.KeepAlive(graphs)
			kept := int64(with.HeapAlloc) - int64(without.HeapAlloc)
			perVertex := float64(kept-16*int64(border)) / float64(verts)
			t.Logf("%s hops %d: %d fragment vertices, %d border positions: the layout keeps %d B beyond its graphs, %.1f B per vertex beyond 16 B per border position",
				tc.name, hops, verts, border, kept, perVertex)
			if perVertex > 12 {
				t.Errorf("%s hops %d: the layout keeps %.1f B per fragment vertex beyond its graphs and 16 B per border position, budget 12", tc.name, hops, perVertex)
			}
		}
	}
}

// TestLocalAgreesWithIndex: Fragment.Local finds every vertex of a fragment
// graph — inner, outer copy, one a session added — at its dense index, and
// nothing else.
func TestLocalAgreesWithIndex(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 60, Products: 4, Follows: 3, AdoptP: 0.7, Seed: 3})
	asg, err := Hash{}.Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := Build(g, asg)
	for _, f := range l.Fragments {
		for _, id := range g.Vertices() {
			want := slices.Contains(innerIDs(f), id) || slices.Contains(outerIDs(f), id)
			if i, ok := f.Local(id); ok != want || ok && f.G.IDAt(i) != id {
				t.Fatalf("fragment %d: Local(%d) = %d, %v; want found = %v", f.Index, id, i, ok, want)
			}
		}
	}
	f := l.Fragments[0]
	fresh := g.Vertices()[0]
	for _, id := range g.Vertices() {
		if _, ok := f.Local(id); !ok {
			fresh = id
			break
		}
	}
	f.G.AddVertex(fresh, g.Label(fresh))
	l.AddHost(fresh, 0)
	for i, id := range f.G.Vertices() {
		if j, ok := f.Local(id); !ok || j != int32(i) {
			t.Fatalf("Local(%d) = %d, %v; want %d", id, j, ok, i)
		}
	}
	if _, ok := f.Local(-1); ok {
		t.Fatal("Local found an absent vertex")
	}
}

// TestBuildExpandedFrozen: the data-shipping variant also yields valid
// fragments with intact caches.
func TestBuildExpandedFrozen(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 150, Products: 4, Follows: 4, AdoptP: 0.7, Seed: 9})
	asg, err := Hash{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := BuildExpanded(g, asg, 2)
	for _, f := range l.Fragments {
		if err := f.G.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, i := range f.InnerIndices() {
			if id := f.G.IDAt(i); !f.IsInnerAt(i) || !f.IsInner(id) || f.Owner(id) != f.Index {
				t.Fatalf("inner cache broken at %d", id)
			}
		}
		for p, i := range f.BorderIndices() {
			if q, ok := f.BorderPos(f.G.IDAt(i)); !ok || int(q) != p {
				t.Fatalf("border cache broken at %d", f.G.IDAt(i))
			}
		}
	}
}

// TestAddHostGrowsTheIndex: what a session does when a graph update gives a
// fragment an outer copy it never had — the copy gets the next border
// position, a vertex nobody had copied the next slot, a slot that gains a host
// a longer list — leaves an index that still maps every way round, and a
// fragment that still ships as a frame.
func TestAddHostGrowsTheIndex(t *testing.T) {
	g := gen.Random(60, 90, 4)
	asg, err := Hash{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := Build(g, asg)
	cut, grown, firsts := l.Slots(), 0, 0
	for _, id := range g.SortedVertices() {
		for w, f := range l.Fragments {
			if f.G.Has(id) || (int(id)+w)%3 != 0 {
				continue
			}
			before := hostsOf(l, id)
			f.G.AddVertex(id, g.Label(id))
			owner, first := l.AddHost(id, w)
			if owner != asg.Owner(id) || first != (len(before) == 1) {
				t.Fatalf("AddHost(%d, %d) = owner %d, first %v; hosts were %v", id, w, owner, first, before)
			}
			if got, want := hostsOf(l, id), slices.Sorted(slices.Values(append(before, w))); !slices.Equal(got, want) {
				t.Fatalf("hosts of %d after fragment %d copied it: %v, want %v", id, w, got, want)
			}
			if again, first := l.AddHost(id, w); again != owner || first {
				t.Fatal("a second AddHost of the same copy is not a no-op")
			}
			grown++
			if first {
				firsts++
			}
		}
	}
	if l.CutSlots() != cut || l.Slots() != cut+firsts || firsts == 0 || firsts == grown {
		t.Fatalf("fixture: %d copies added, %d of them firsts, slots %d -> %d (cut %d)", grown, firsts, cut, l.Slots(), l.CutSlots())
	}
	checkBorderIndex(t, "grown", l)
	for _, f := range l.Fragments {
		re, _, err := DecodeFragment(AppendFragment(nil, f))
		if err != nil {
			t.Fatalf("fragment %d no longer ships: %v", f.Index, err)
		}
		if got, want := borderIDs(re), slices.Sorted(slices.Values(borderIDs(f))); !slices.Equal(got, want) {
			t.Fatalf("fragment %d: shipped border %v, want %v", f.Index, got, want)
		}
	}
}
