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

func TestCCMatchesSequentialAcrossStrategies(t *testing.T) {
	// a graph with several components: random clusters plus isolated nodes
	g := gen.Random(200, 260, 11)
	for v := 1000; v < 1010; v++ {
		g.AddVertex(graph.ID(v), "")
	}
	for _, strat := range partition.Strategies() {
		for _, n := range []int{1, 2, 5} {
			res, _, err := engine.Run(context.Background(), g, CC{}, CCQuery{}, engine.Options{Workers: n, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%d: %v", strat.Name(), n, err)
			}
			mustAgree(t, strat.Name(), "cc", g, CCQuery{}, res)
		}
	}
}

func TestCCSingleComponent(t *testing.T) {
	g := gen.RoadGrid(12, 12, 1)
	res, _, err := engine.Run(context.Background(), g, CC{}, CCQuery{}, engine.Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res {
		if c != 0 {
			t.Fatalf("grid is connected; vertex %d labeled %d", v, c)
		}
	}
}

func TestCCProperty(t *testing.T) {
	f := func(seed int64, nw uint8) bool {
		n := 2 + int(uint(seed)%80)
		g := gen.Random(n, n, seed)
		res, _, err := engine.Run(context.Background(), g, CC{}, CCQuery{},
			engine.Options{Workers: 1 + int(nw%5), Strategy: partition.Hash{}})
		return err == nil && verdict("cc", g, CCQuery{}, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCCLabelsAreComponentMinima(t *testing.T) {
	// Invariant: every component label is the minimum vertex ID of the
	// component, so a label must label itself.
	g := gen.PreferentialAttachment(300, 2, 4)
	res, _, err := engine.Run(context.Background(), g, CC{}, CCQuery{}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res {
		if c > v {
			t.Fatalf("label %d exceeds member %d", c, v)
		}
		if res[c] != c {
			t.Fatalf("label %d is not its own label (%d)", c, res[c])
		}
	}
}
