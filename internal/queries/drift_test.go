package queries

import (
	"context"
	"reflect"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

// borderHosts counts every (fragment, border vertex) pair of a layout: the
// outer copies plus the inner vertices somebody copies.
func borderHosts(l *partition.Layout) int {
	n := 0
	for _, f := range l.Fragments {
		n += len(f.Border())
	}
	return n
}

// sameOwners reports whether two assignments of one graph's vertices give
// every vertex the same owner.
func sameOwners(a, b *partition.Assignment) bool {
	for _, id := range b.G.Vertices() {
		if a.Owner(id) != b.Owner(id) {
			return false
		}
	}
	return true
}

// TestEvolvedLayoutDrift bounds what answering on a session's evolved layout
// costs against a fresh cut, along a stream of 16-edge batches (40 %
// deletions) through an sssp session on a road grid and a cc session on a
// scale-free graph. The session never re-partitions: its assignment stays the
// one it opened with, and a deletion leaves the outer copy of its target
// behind. The server serves such a layout under every strategy. At every
// 100th batch where the fresh cut assigns every vertex where the evolved
// layout does (under 2d, every one):
//   - the assignment's cut-edge ratio on the current graph stays within 5 %
//     of a fresh cut's;
//   - its border hosts stay within 10 % of partition.Build over the same
//     assignment.
//
// fennel places vertices by their edges, so its session's cut drifts from
// the one a fresh cut would make (on the road grid by 10-25 % mid-stream):
// that drift is what a fennel server serves, logged here and not yet
// bounded. On both, every cut-invariant class answers on the evolved layout
// exactly as on a fresh cut.
func TestEvolvedLayoutDrift(t *testing.T) {
	batches := 1000
	if testing.Short() {
		batches = 100
	}
	road := gen.RoadGrid(96, 96, 1).Clone()
	social := gen.PreferentialAttachment(10000, 5, 1)
	for _, g := range []*graph.Graph{road, social} {
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
		g.Freeze()
	}
	classes := []struct{ program, query string }{
		{"sssp", "source=0"},
		{"cc", ""},
		{"sim", "pattern=triangle"},
		{"keyword", "k=db,graph bound=4"},
	}
	ctx := context.Background()
	for _, c := range []struct {
		name           string
		g              *graph.Graph
		program, query string
	}{
		{"road", road, "sssp", "source=0"},
		{"social", social, "cc", ""},
	} {
		for _, strat := range []partition.Strategy{partition.TwoD{}, partition.Fennel{}} {
			t.Run(c.name+"/"+strat.Name(), func(t *testing.T) {
				opts := engine.Options{Workers: 8, Strategy: strat}
				e, err := engine.Lookup(c.program)
				if err != nil {
					t.Fatal(err)
				}
				pq, err := e.Parse(c.query)
				if err != nil {
					t.Fatal(err)
				}
				sess, _, _, err := e.Session(ctx, c.g, opts, pq)
				if err != nil {
					t.Fatal(err)
				}
				var fresh *partition.Layout
				for b, batch := range gen.UpdateStream(c.g, gen.StreamConfig{Batches: batches, BatchSize: 16, DeleteP: 0.4, Seed: 1}) {
					if _, _, err := sess.Update(ctx, updatesOf(batch)); err != nil {
						t.Fatal(err)
					}
					if (b+1)%100 != 0 {
						continue
					}
					evolved, g := sess.Layout(), sess.Graph()
					if evolved == nil {
						t.Fatalf("a live %s session has no layout", c.program)
					}
					if fresh, err = engine.BuildLayout(g, opts); err != nil {
						t.Fatal(err)
					}
					evolvedCut := partition.Measure(strat.Name(), evolved.Asg).CutFraction
					freshCut := partition.Measure(strat.Name(), fresh.Asg).CutFraction
					hosts, rebuilt := borderHosts(evolved), borderHosts(partition.Build(g, evolved.Asg))
					same := sameOwners(evolved.Asg, fresh.Asg)
					t.Logf("after %d batches: cut_edge_ratio %.4f evolved, %.4f fresh (%+.1f %%); border hosts %d evolved, %d rebuilt (%+.1f %%); same owners %v",
						b+1, evolvedCut, freshCut, 100*(evolvedCut/freshCut-1), hosts, rebuilt, 100*(float64(hosts)/float64(rebuilt)-1), same)
					if !same {
						continue
					}
					if evolvedCut > 1.05*freshCut {
						t.Errorf("after %d batches: cut_edge_ratio %.4f on the evolved assignment, more than 5 %% over a fresh cut's %.4f", b+1, evolvedCut, freshCut)
					}
					if float64(hosts) > 1.10*float64(rebuilt) {
						t.Errorf("after %d batches: %d border hosts on the evolved layout, more than 10 %% over the %d of a cut by the same assignment", b+1, hosts, rebuilt)
					}
				}
				for _, cl := range classes {
					ce, err := engine.Lookup(cl.program)
					if err != nil {
						t.Fatal(err)
					}
					cq, err := ce.Parse(cl.query)
					if err != nil {
						t.Fatal(err)
					}
					var answers [2]any
					for i, l := range []*partition.Layout{sess.Layout(), fresh} {
						r, err := ce.Resident(l, engine.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if answers[i], _, err = r.RunParsed(ctx, cq); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(answers[0], answers[1]) {
						t.Errorf("%s answers differently on the evolved layout and on a fresh cut", cl.program)
					}
				}
			})
		}
	}
}
