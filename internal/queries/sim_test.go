package queries

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

func labeledRandom(n, m int, seed int64, labels []string) *graph.Graph {
	g := gen.Random(n, m, seed)
	for i, v := range g.SortedVertices() {
		// deterministic label assignment
		g.AddVertex(v, labels[(uint(i)*7+uint(seed))%uint(len(labels))])
	}
	return g
}

func TestSimMatchesSequential(t *testing.T) {
	labels := []string{"a", "b", "c"}
	g := labeledRandom(150, 450, 21, labels)

	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddVertex(2, "c")
	p.AddEdge(0, 1, 1)
	p.AddEdge(1, 2, 1)
	p.AddEdge(2, 1, 1)

	for _, strat := range partition.Strategies() {
		for _, n := range []int{1, 2, 4, 7} {
			got, _, err := engine.Run(context.Background(), g, Sim{}, SimQuery{Pattern: p},
				engine.Options{Workers: n, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%d: %v", strat.Name(), n, err)
			}
			mustAgree(t, fmt.Sprintf("%s/%d", strat.Name(), n), "sim", g, SimQuery{Pattern: p}, got)
		}
	}
}

func TestSimEmptyResult(t *testing.T) {
	g := labeledRandom(40, 60, 5, []string{"x", "y"})
	p := graph.New()
	p.AddVertex(0, "zzz") // label absent from g
	p.AddVertex(1, "x")
	p.AddEdge(0, 1, 1)
	got, _, err := engine.Run(context.Background(), g, Sim{}, SimQuery{Pattern: p}, engine.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 0 {
		t.Fatalf("expected empty sim for absent label, got %v", got[0])
	}
	// regression: pattern vertices with empty sim sets must still appear as
	// keys, matching the sequential result's shape
	if _, ok := got[0]; !ok {
		t.Fatal("empty sim set must be present in the result map")
	}
	if len(got) != p.NumVertices() {
		t.Fatalf("result should cover all %d pattern vertices, got %d", p.NumVertices(), len(got))
	}
}

func TestSimRejectsBadPatterns(t *testing.T) {
	g := labeledRandom(10, 10, 1, []string{"a"})
	if _, _, err := engine.Run(context.Background(), g, Sim{}, SimQuery{}, engine.Options{Workers: 2}); err == nil {
		t.Fatal("expected error for nil pattern")
	}
	big := graph.New()
	for i := graph.ID(0); i < 70; i++ {
		big.AddVertex(i, "a")
	}
	if _, _, err := engine.Run(context.Background(), g, Sim{}, SimQuery{Pattern: big}, engine.Options{Workers: 2}); err == nil {
		t.Fatal("expected error for oversized pattern")
	}
}

func TestSimPropertyMatchesSequential(t *testing.T) {
	labels := []string{"a", "b"}
	p := graph.New()
	p.AddVertex(0, "a")
	p.AddVertex(1, "b")
	p.AddEdge(0, 1, 1)

	f := func(seed int64, nw uint8) bool {
		n := 5 + int(uint(seed)%40)
		g := labeledRandom(n, 2*n, seed, labels)
		got, _, err := engine.Run(context.Background(), g, Sim{}, SimQuery{Pattern: p},
			engine.Options{Workers: 1 + int(nw%5), Strategy: partition.Fennel{}})
		return err == nil && verdict("sim", g, SimQuery{Pattern: p}, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSimOnSocialCommerce(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 200, Products: 10, Follows: 3, AdoptP: 0.8, Seed: 3})
	p, err := PatternByName("follows-recommend")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := engine.Run(context.Background(), g, Sim{}, SimQuery{Pattern: p}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, "social-commerce graph", "sim", g, SimQuery{Pattern: p}, got)
	if len(got[2]) == 0 {
		t.Fatal("expected some recommended products in simulation result")
	}
}
