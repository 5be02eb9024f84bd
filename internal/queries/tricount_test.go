package queries

import (
	"context"
	"reflect"
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
	want := SeqTriangles(g)
	if want == 0 {
		t.Skip("unlucky seed: no triangles")
	}
	for _, n := range []int{1, 3, 8} {
		res, _, err := RunTriCount(context.Background(), g, engine.Options{Workers: n, Strategy: partition.Hash{}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != want {
			t.Fatalf("workers=%d: %d triangles, want %d", n, res.Total, want)
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
		want := SeqTriangles(g)
		res, _, err := RunTriCount(context.Background(), g, engine.Options{Workers: 1 + int(nw%5)})
		if err != nil {
			return false
		}
		return res.Total == want
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
