package queries

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

func TestTriCountKnownGraphs(t *testing.T) {
	// K4 has 4 triangles
	k4 := graph.New()
	for i := graph.ID(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddEdge(i, j, 1)
		}
	}
	res, stats, err := RunTriCount(context.Background(), k4, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4 {
		t.Fatalf("K4 has 4 triangles, got %d", res.Total)
	}
	if stats.Supersteps != 1 {
		t.Fatalf("tricount is one superstep, got %d", stats.Supersteps)
	}
	// a 4-cycle has none
	c4 := graph.New()
	for i := graph.ID(0); i < 4; i++ {
		c4.AddEdge(i, (i+1)%4, 1)
	}
	res, _, err = RunTriCount(context.Background(), c4, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 {
		t.Fatalf("C4 has no triangles, got %d", res.Total)
	}
}

func TestTriCountMatchesSequential(t *testing.T) {
	g := gen.Random(120, 600, 19)
	for _, n := range []int{1, 3, 8} {
		res, _, err := RunTriCount(context.Background(), g, engine.Options{Workers: n, Strategy: partition.Hash{}})
		if err != nil {
			t.Fatal(err)
		}
		mustAgree(t, fmt.Sprintf("workers=%d", n), "tricount", g, TriCountQuery{}, res)
		if res.Total == 0 {
			t.Fatal("test wants a graph with triangles")
		}
	}
}

func TestTriCountPivotCountsSumToTotal(t *testing.T) {
	g := gen.PreferentialAttachment(300, 4, 23)
	res, _, err := RunTriCount(context.Background(), g, engine.Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range res.PerPivot {
		sum += c
	}
	if sum != res.Total {
		t.Fatalf("pivot counts sum to %d, total %d", sum, res.Total)
	}
}

func TestTriCountProperty(t *testing.T) {
	f := func(seed int64, nw uint8) bool {
		n := 10 + int(uint(seed)%40)
		g := gen.Random(n, 4*n, seed)
		res, _, err := RunTriCount(context.Background(), g, engine.Options{Workers: 1 + int(nw%5)})
		return err == nil && verdict("tricount", g, TriCountQuery{}, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTriCountIgnoresSelfLoopsAndParallelEdges(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 0, 1) // self loop
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1) // parallel
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	res, _, err := RunTriCount(context.Background(), g, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1 {
		t.Fatalf("want exactly 1 triangle, got %d", res.Total)
	}
}

// TestTriCountPatchCountsSharedTrianglesOnce drives batches whose changed
// pairs share triangles: two sides of one triangle created together, a pair
// removed and re-created in one batch, a reverse instance outliving the
// original, and four pairs of a K4 at once. After every batch the patched
// counts, pivot by pivot, must equal a fresh run's on the session's graph.
func TestTriCountPatchCountsSharedTrianglesOnce(t *testing.T) {
	ctx := context.Background()
	g := graph.New()
	for i := graph.ID(0); i < 6; i++ {
		g.AddVertex(i, "")
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	e, err := engine.Lookup("tricount")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Parse("")
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Workers: 2, Strategy: partition.Hash{}}
	sess, _, _, err := e.Session(ctx, g, opts, pq)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(u, v graph.ID) engine.EdgeUpdate { return engine.EdgeUpdate{From: u, To: v, W: 1} }
	del := func(u, v graph.ID) engine.EdgeUpdate { return engine.EdgeUpdate{From: u, To: v, Del: true} }
	for bi, batch := range [][]engine.EdgeUpdate{
		{ins(2, 0), ins(4, 5), ins(5, 3)},            // closes {0,1,2}; {3,4,5} gains two sides at once
		{ins(1, 0), del(0, 1)},                       // the reverse instance keeps {0,1} connected
		{del(2, 0), ins(0, 2), del(3, 4)},            // {0,2} removed and re-created; {3,4} removed
		{ins(0, 3), ins(1, 3), ins(2, 3), ins(3, 3)}, // a K4 on {0,1,2,3}, and a self-loop
	} {
		res, _, err := sess.Update(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		want, _, err := e.Run(ctx, sess.Graph(), opts, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("batch %d: patched %+v, fresh run %+v", bi, res, want)
		}
	}
}

// oracleTriangles is the map formulation the forward kernel replaced: for
// each vertex v, the neighbor sets over both edge directions, every pair of
// v's larger neighbors tested for adjacency. It returns the triangles
// pivoted at each vertex (their smallest-ID vertex), nonzero counts only.
func oracleTriangles(g *graph.Graph) map[graph.ID]int64 {
	neighbors := func(v graph.ID) map[graph.ID]bool {
		set := make(map[graph.ID]bool)
		for _, es := range [2][]graph.Edge{g.Out(v), g.In(v)} {
			for _, e := range es {
				if e.To != v {
					set[e.To] = true
				}
			}
		}
		return set
	}
	per := make(map[graph.ID]int64)
	for _, v := range g.SortedVertices() {
		var bigger []graph.ID
		for u := range neighbors(v) {
			if u > v {
				bigger = append(bigger, u)
			}
		}
		for i := 0; i < len(bigger); i++ {
			ai := neighbors(bigger[i])
			for j := i + 1; j < len(bigger); j++ {
				if ai[bigger[j]] {
					per[v]++
				}
			}
		}
	}
	return per
}

// TestTriCountPerPivotMatchesOracle: the engine's per-pivot counts equal the
// map oracle's, vertex for vertex, at 1, 3 and 8 workers under hash and
// fennel — on graphs with self-loops, parallel and reciprocal edges and a
// dense order that does not ascend by ID — and on the fragments of a
// session's layout, whose outer copies the batches appended out of ID order.
func TestTriCountPerPivotMatchesOracle(t *testing.T) {
	ctx := context.Background()
	pa := gen.PreferentialAttachment(400, 4, 7)
	shuffled := graph.New() // dense order a random permutation of the IDs
	src := gen.Random(150, 900, 11)
	ids := src.Vertices()
	rand.New(rand.NewSource(11)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, v := range ids {
		shuffled.AddVertex(3*v+1, "")
	}
	for _, u := range src.Vertices() {
		for _, e := range src.Out(u) {
			shuffled.AddEdge(3*u+1, 3*e.To+1, e.W)
			shuffled.AddEdge(3*e.To+1, 3*u+1, e.W) // reciprocal
		}
		shuffled.AddEdge(3*u+1, 3*u+1, 1) // self-loop
	}
	for name, g := range map[string]*graph.Graph{"pa": pa, "shuffled": shuffled} {
		want := oracleTriangles(g)
		if len(want) == 0 {
			t.Fatalf("%s: no triangles to count", name)
		}
		var total int64
		for _, c := range want {
			total += c
		}
		if got := SeqTriangles(g); got != total { // seq itself under test
			t.Fatalf("%s: SeqTriangles counts %d, the oracle %d", name, got, total)
		}
		for _, strat := range []partition.Strategy{partition.Hash{}, partition.Fennel{}} {
			for _, m := range []int{1, 3, 8} {
				res, _, err := RunTriCount(ctx, g, engine.Options{Workers: m, Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				if res.Total != total || !maps.Equal(res.PerPivot, want) {
					t.Fatalf("%s %s m=%d: total %d, want %d; per-pivot counts differ from the oracle's", name, strat.Name(), m, res.Total, total)
				}
			}
		}
	}

	// A cc session's fragments after a few batches hold outer copies
	// appended behind their cut. Counted on the layout as it stands (read as
	// 1-hop: each fragment answers for its own graph), every inner pivot
	// must carry the oracle's count on its fragment's graph.
	e, err := engine.Lookup("cc")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Parse("")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, _, err := e.Session(ctx, pa, engine.Options{Workers: 3, Strategy: partition.Hash{}}, pq)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range gen.UpdateStream(pa, gen.StreamConfig{Batches: 6, BatchSize: 40, DeleteP: 0.2, Seed: 3}) {
		if _, _, err := sess.Update(ctx, updatesOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	layout := *sess.Layout()
	layout.Hops = 1
	want := make(map[graph.ID]int64)
	unordered := false
	for _, f := range layout.Fragments {
		ids := make([]graph.ID, f.G.NumVertices())
		for i := range ids {
			ids[i] = f.G.IDAt(int32(i))
		}
		unordered = unordered || !slices.IsSorted(ids)
		for v, c := range oracleTriangles(f.G) {
			if f.IsInner(v) {
				want[v] = c
			}
		}
	}
	if !unordered {
		t.Fatal("no session fragment has a dense order out of ID order")
	}
	res, _, err := engine.RunOnLayout(ctx, &layout, TriCount{}, TriCountQuery{}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !maps.Equal(res.PerPivot, want) {
		t.Fatalf("session layout: %d pivots counted, the oracle has %d; per-pivot counts differ", len(res.PerPivot), len(want))
	}
}
