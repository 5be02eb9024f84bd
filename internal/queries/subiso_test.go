package queries

import (
	"context"
	"fmt"
	"testing"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/partition"
)

func TestSubIsoMatchesSequential(t *testing.T) {
	labels := []string{"a", "b", "c"}
	g := labeledRandom(80, 240, 13, labels)
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddVertex(2, "c")
	p.AddEdge(0, 1, 1)
	p.AddEdge(1, 2, 1)

	for _, n := range []int{1, 2, 4, 6} {
		got, stats, err := RunSubIso(context.Background(), g, SubIsoQuery{Pattern: p}, engine.Options{Workers: n, Strategy: partition.Hash{}})
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		mustAgree(t, fmt.Sprintf("workers=%d", n), "subiso", g, SubIsoQuery{Pattern: p}, got)
		if stats.Supersteps != 1 {
			t.Fatalf("subiso should finish in one superstep, took %d", stats.Supersteps)
		}
	}
}

func TestSubIsoTriangleOnDirectedCycle(t *testing.T) {
	// a single directed 6-cycle contains no triangle; adding chords creates
	// exactly the expected ones
	g := graph.New()
	for i := graph.ID(0); i < 6; i++ {
		g.AddVertex(i, "")
	}
	for i := graph.ID(0); i < 6; i++ {
		g.AddEdge(i, (i+1)%6, 1)
	}
	p, _ := PatternByName("triangle")
	got, _, err := RunSubIso(context.Background(), g, SubIsoQuery{Pattern: p}, engine.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("6-cycle has no directed triangle, got %d", len(got))
	}
	g.AddEdge(2, 0, 1) // 0->1->2->0
	got, _, err = RunSubIso(context.Background(), g, SubIsoQuery{Pattern: p}, engine.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// each directed triangle is found 3 times (rotations are distinct maps)
	if len(got) != 3 {
		t.Fatalf("want 3 rotated embeddings of the triangle, got %d", len(got))
	}
}

func TestSubIsoMaxMatches(t *testing.T) {
	g := labeledRandom(60, 240, 17, []string{"a", "b"})
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddEdge(0, 1, 1)
	q := SubIsoQuery{Pattern: p, MaxMatches: 5}
	got, _, err := RunSubIso(context.Background(), g, q, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("want capped 5 matches, got %d", len(got))
	}
	mustAgree(t, "capped", "subiso", g, q, got) // the first 5 in rank order
}

func TestSubIsoAnchorsPartitionMatchesExactlyOnce(t *testing.T) {
	// The same match must not be reported by two fragments. Compare against
	// sequential with heavy fragmentation.
	g := labeledRandom(50, 200, 23, []string{"a", "b"})
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "a")
	p.AddVertex(2, "b")
	p.AddEdge(0, 1, 1)
	p.AddEdge(1, 2, 1)
	got, _, err := RunSubIso(context.Background(), g, SubIsoQuery{Pattern: p}, engine.Options{Workers: 10, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, "duplicate or missing matches", "subiso", g, SubIsoQuery{Pattern: p}, got)
}
