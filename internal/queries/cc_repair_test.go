package queries

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

// treePlusChords is a random tree on vertices 0..n-1 plus chords random extra
// edges: a sparse graph on which most deletions split a component. Each
// vertex i > 0 hangs off one of the three before it, the edge pointing either
// way, so the tree is long and thin with its low IDs at one end: a split
// often takes its component's minimum along, and two splits in one component
// often leave a short middle between two long remainders.
func treePlusChords(n, chords int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	g.AddVertex(0, "")
	for i := 1; i < n; i++ {
		p, c := graph.ID(i-1-rng.Intn(min(i, 3))), graph.ID(i)
		if rng.Intn(2) == 0 {
			p, c = c, p
		}
		g.AddEdge(p, c, 1)
	}
	for k := 0; k < chords; k++ {
		g.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), 1)
	}
	return g
}

// addCycle links lo → lo+1 → … → hi → lo.
func addCycle(g *graph.Graph, lo, hi graph.ID) {
	for v := lo; v < hi; v++ {
		g.AddEdge(v, v+1, 1)
	}
	g.AddEdge(hi, lo, 1)
}

func del(u, v graph.ID) engine.EdgeUpdate { return engine.EdgeUpdate{From: u, To: v, Del: true} }
func ins(u, v graph.ID) engine.EdgeUpdate { return engine.EdgeUpdate{From: u, To: v, W: 1} }

// TestCCRepairSplits drives CC sessions through batches whose deletions
// really split components — the cases the split test and the remainder rule
// of RepairBatch exist for — and holds the answer to cc's ground truth
// (seq.Components) after every batch, on 1, 3 and 8 fragments.
func TestCCRepairSplits(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *graph.Graph
		batches [][]engine.EdgeUpdate
	}{
		{
			// 0 hangs off the cycle 1..20 by one bridge: cutting it splits off
			// {0}, the old minimum, so the cycle must be relabeled to 1
			name: "piece holds the old minimum",
			build: func() *graph.Graph {
				g := graph.New()
				addCycle(g, 1, 20)
				g.AddEdge(0, 5, 1)
				return g
			},
			batches: [][]engine.EdgeUpdate{
				{del(0, 5)},
				{ins(5, 0)},
				{del(5, 0), del(1, 2)},
			},
		},
		{
			// X = 0..9 – Z = {20, 21} – Y = 10..19: cutting both bridges
			// leaves the small piece Z and two large remainders, X and Y,
			// which must part — Y takes 10
			name: "two bridges leave two remainders",
			build: func() *graph.Graph {
				g := graph.New()
				addCycle(g, 0, 9)
				addCycle(g, 10, 19)
				g.AddEdge(20, 21, 1)
				g.AddEdge(5, 20, 1)
				g.AddEdge(21, 15, 1)
				return g
			},
			batches: [][]engine.EdgeUpdate{
				{del(5, 20), del(21, 15)},
				{ins(20, 5), ins(15, 21)},
				{del(15, 21), del(20, 21), del(20, 5)},
			},
		},
		{
			// one batch merges A = {0} ∪ 1..9 with B = 10..19 and cuts the
			// bridge holding the merged minimum, 0: 1..19 take 1
			name: "merge and cut the merged minimum",
			build: func() *graph.Graph {
				g := graph.New()
				addCycle(g, 1, 9)
				addCycle(g, 10, 19)
				g.AddEdge(0, 3, 1)
				return g
			},
			batches: [][]engine.EdgeUpdate{
				{ins(5, 12), del(0, 3)},
				{ins(12, 0), del(5, 12)},
			},
		},
		{
			name: "delete and re-insert one bridge",
			build: func() *graph.Graph {
				g := graph.New()
				addCycle(g, 1, 9)
				g.AddEdge(0, 5, 1)
				return g
			},
			batches: [][]engine.EdgeUpdate{
				{del(0, 5), ins(0, 5)},
				{ins(0, 5), del(0, 5)},
				{ins(5, 0), del(0, 5)},
			},
		},
		{
			// cutting 9 → 20 splits off {20, 21} and, through the edge the
			// same batch inserts, the vertex 30: a piece reached only through
			// an outer copy the batch added
			name: "piece through a new outer copy",
			build: func() *graph.Graph {
				g := graph.New()
				addCycle(g, 0, 9)
				g.AddEdge(9, 20, 1)
				g.AddEdge(20, 21, 1)
				g.AddVertex(30, "")
				return g
			},
			batches: [][]engine.EdgeUpdate{
				{ins(21, 30), del(9, 20)},
				{ins(30, 2), del(21, 30)},
			},
		},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/%d", c.name, workers), func(t *testing.T) {
				g := c.build()
				shadow := g.Clone()
				sess, res, _, err := engine.NewSession(context.Background(), g, CC{}, CCQuery{},
					engine.Options{Workers: workers, Strategy: partition.Hash{}})
				if err != nil {
					t.Fatal(err)
				}
				mustAgree(t, "initial", "cc", shadow, CCQuery{}, res)
				for bi, batch := range c.batches {
					res, _, err := sess.Update(context.Background(), batch)
					if err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					applyShadow(t, shadow, batch)
					mustAgree(t, fmt.Sprintf("batch %d", bi), "cc", shadow, CCQuery{}, res)
					got, err := sess.Result()
					if err != nil {
						t.Fatal(err)
					}
					mustAgree(t, fmt.Sprintf("batch %d, retained", bi), "cc", shadow, CCQuery{}, got)
				}
			})
		}
	}
}

// BenchmarkCCSessionBatch times one 16-edge batch of a CC session on
// PreferentialAttachment(10000, 5) over 8 Fennel fragments — serve-churn's
// social graph and layout: a mixed batch (40 % deletions, as serve-churn
// draws them) and an insert-only batch, both through RepairBatch.
func BenchmarkCCSessionBatch(b *testing.B) {
	base := gen.PreferentialAttachment(10000, 5, 1).Freeze()
	run := func(b *testing.B, deleteP float64) {
		g := base.Clone()
		stream := gen.UpdateStream(g, gen.StreamConfig{Batches: b.N, BatchSize: 16, DeleteP: deleteP, Seed: 1})
		sess, _, _, err := engine.NewSession(context.Background(), g, CC{}, CCQuery{},
			engine.Options{Workers: 8, Strategy: partition.Fennel{}})
		if err != nil {
			b.Fatal(err)
		}
		batches := make([][]engine.EdgeUpdate, len(stream))
		for i, batch := range stream {
			batches[i] = updatesOf(batch)
		}
		b.ResetTimer()
		for _, batch := range batches {
			if _, _, err := sess.Update(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mixed", func(b *testing.B) { run(b, 0.4) })
	b.Run("inserts", func(b *testing.B) { run(b, 0) })
}
