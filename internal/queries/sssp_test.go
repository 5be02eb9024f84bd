package queries

import (
	"context"
	"testing"
	"testing/quick"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

func runSSSP(t *testing.T, g *graph.Graph, src graph.ID, opts engine.Options) map[graph.ID]float64 {
	t.Helper()
	res, stats, err := engine.Run(context.Background(), g, SSSP{}, SSSPQuery{Source: src}, opts)
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	if stats.Supersteps < 1 {
		t.Fatalf("expected at least one superstep, got %d", stats.Supersteps)
	}
	return res
}

func TestSSSPMatchesDijkstraAcrossStrategiesAndWorkers(t *testing.T) {
	g := gen.ConnectedRandom(300, 900, 42)
	for _, strat := range partition.Strategies() {
		for _, n := range []int{1, 2, 3, 8} {
			got := runSSSP(t, g, 0, engine.Options{Workers: n, Strategy: strat})
			mustAgree(t, strat.Name(), "sssp", g, SSSPQuery{Source: 0}, got)
		}
	}
}

func TestSSSPOnRoadGrid(t *testing.T) {
	g := gen.RoadGrid(20, 30, 7)
	got := runSSSP(t, g, 0, engine.Options{Workers: 6, Strategy: partition.MetisLike{}})
	mustAgree(t, "road grid", "sssp", g, SSSPQuery{Source: 0}, got)
}

func TestSSSPUnreachableSource(t *testing.T) {
	g := gen.Random(50, 100, 3)
	g.AddVertex(999, "") // isolated
	got := runSSSP(t, g, 999, engine.Options{Workers: 4})
	if len(got) != 1 || got[999] != 0 {
		t.Fatalf("isolated source should reach only itself, got %v", got)
	}
}

func TestSSSPSourceAbsent(t *testing.T) {
	g := gen.Random(20, 40, 3)
	got := runSSSP(t, g, 777777, engine.Options{Workers: 4})
	if len(got) != 0 {
		t.Fatalf("absent source should reach nothing, got %v", got)
	}
}

func TestSSSPPropertyRandomGraphs(t *testing.T) {
	// Property: for random graphs, GRAPE-SSSP equals sequential Dijkstra
	// exactly (internal/seq holds Dijkstra to Bellman-Ford).
	f := func(seed int64, nw uint8) bool {
		n := 3 + int(uint(seed)%60)
		m := 2 * n
		g := gen.ConnectedRandom(n, m, seed)
		q := SSSPQuery{Source: graph.ID(int(uint(seed) % uint(n)))}
		workers := 1 + int(nw%6)
		res, _, err := engine.Run(context.Background(), g, SSSP{}, q,
			engine.Options{Workers: workers, Strategy: partition.Fennel{}})
		if err == nil {
			err = verdict("sssp", g, q, res)
		}
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPCommunicationIsBorderBounded(t *testing.T) {
	// Example 1(c): communication is confined to update parameters of
	// border nodes — total messages cannot exceed supersteps × border set,
	// and bytes stay minuscule relative to shipping the graph.
	g := gen.RoadGrid(30, 30, 5)
	asg, err := partition.Range{}.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	layout := partition.Build(g, asg)
	_, stats, err := engine.RunOnLayout(context.Background(), layout, SSSP{}, SSSPQuery{Source: 0}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	border := asg.BorderCount()
	// every data message carries at least one update of a border variable
	maxUpdates := int64(border) * int64(stats.Supersteps) * 2 // both directions
	if stats.Bytes > maxUpdates*16+int64(stats.Supersteps)*64 {
		t.Fatalf("communication not border-bounded: %d bytes for %d border nodes over %d supersteps",
			stats.Bytes, border, stats.Supersteps)
	}
}

func TestSSSPRegistryRun(t *testing.T) {
	g := gen.ConnectedRandom(100, 300, 9)
	e, err := engine.Lookup("sssp")
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.Run(context.Background(), g, engine.Options{Workers: 3}, "source=0")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Parse("source=0")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(g, pq, res); err != nil {
		t.Fatalf("registry: %v", err)
	}
	if stats == nil || stats.Workers != 3 {
		t.Fatalf("stats missing or wrong workers: %+v", stats)
	}
	if _, _, err := e.Run(context.Background(), g, engine.Options{}, "source=notanumber"); err == nil {
		t.Fatal("expected parse error")
	}
}
