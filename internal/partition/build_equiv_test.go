package partition

import (
	"reflect"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// TestBuildFrozenEquivalence: Build over a frozen input (the
// SubgraphBuilder CSR path) and over a thawed copy of the same graph (the
// mutable path) must produce identical layouts — same fragment graphs in
// the same dense order (checked via graph.Diff, which compares exact
// adjacency order), same Inner/Outer/InnerBorder, same placement.
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
			frozen := tc.g // generators freeze
			if !frozen.Frozen() {
				t.Fatal("generator did not freeze")
			}
			thawed := frozen.Clone()
			thawed.AddVertex(frozen.IDAt(0), "") // no-op mutation thaws
			if thawed.Frozen() {
				t.Fatal("clone did not thaw")
			}

			for _, n := range []int{1, 3, 8} {
				asgF, err := Hash{}.Partition(frozen, n)
				if err != nil {
					t.Fatal(err)
				}
				asgT, err := Hash{}.Partition(thawed, n)
				if err != nil {
					t.Fatal(err)
				}
				lf := Build(frozen, asgF)
				lt := Build(thawed, asgT)
				if !reflect.DeepEqual(lf.Placement, lt.Placement) {
					t.Fatalf("n=%d: placement differs", n)
				}
				for i := range lf.Fragments {
					ff, ft := lf.Fragments[i], lt.Fragments[i]
					if !reflect.DeepEqual(ff.Inner, ft.Inner) ||
						!reflect.DeepEqual(ff.Outer, ft.Outer) ||
						!reflect.DeepEqual(ff.InnerBorder, ft.InnerBorder) {
						t.Fatalf("n=%d fragment %d: vertex lists differ", n, i)
					}
					if !ff.G.Frozen() || !ft.G.Frozen() {
						t.Fatalf("n=%d fragment %d: fragments must come out frozen", n, i)
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

// TestBuildExpandedFrozen: the data-shipping variant also yields frozen,
// valid fragments with intact caches.
func TestBuildExpandedFrozen(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 150, Products: 4, Follows: 4, AdoptP: 0.7, Seed: 9})
	asg, err := Hash{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := BuildExpanded(g, asg, 2)
	for _, f := range l.Fragments {
		if !f.G.Frozen() {
			t.Fatal("expanded fragment not frozen")
		}
		if err := f.G.Validate(); err != nil {
			t.Fatal(err)
		}
		iidx := f.InnerIndices()
		for k, id := range f.Inner {
			if f.G.IDAt(iidx[k]) != id || !f.IsInnerAt(iidx[k]) {
				t.Fatalf("inner cache broken at %d", id)
			}
		}
		bidx := f.BorderIndices()
		for k, id := range f.Border() {
			if bidx[k] < 0 || f.G.IDAt(bidx[k]) != id {
				t.Fatalf("border cache broken at %d", id)
			}
		}
	}
}
