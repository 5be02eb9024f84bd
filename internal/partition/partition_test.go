package partition

import (
	"testing"
	"testing/quick"

	"grape/internal/gen"
	"grape/internal/graph"
)

func TestEveryStrategyProducesTotalValidAssignment(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":   gen.RoadGrid(12, 12, 1),
		"social": gen.PreferentialAttachment(500, 3, 2),
		"random": gen.Random(200, 400, 3),
	}
	for gname, g := range graphs {
		for _, strat := range Strategies() {
			for _, n := range []int{1, 2, 7, 16} {
				asg, err := strat.Partition(g, n)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", gname, strat.Name(), n, err)
				}
				if err := asg.Validate(); err != nil {
					t.Fatalf("%s/%s/%d: %v", gname, strat.Name(), n, err)
				}
				sizes := asg.Sizes()
				total := 0
				for _, s := range sizes {
					total += s
				}
				if total != g.NumVertices() {
					t.Fatalf("%s/%s/%d: assignment covers %d of %d", gname, strat.Name(), n, total, g.NumVertices())
				}
			}
		}
	}
}

func TestBalanceWithinTolerance(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 4, 5)
	for _, strat := range Strategies() {
		asg, err := strat.Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if b := asg.Balance(); b > 1.6 {
			t.Errorf("%s: balance %.2f too skewed", strat.Name(), b)
		}
	}
}

func TestStructureAwareBeatsHashOnGrid(t *testing.T) {
	g := gen.RoadGrid(32, 32, 1)
	hash, _ := Hash{}.Partition(g, 8)
	metis, _ := MetisLike{}.Partition(g, 8)
	fennel, _ := Fennel{}.Partition(g, 8)
	ldg, _ := LDG{}.Partition(g, 8)
	twod, _ := TwoD{Cols: 32}.Partition(g, 8)
	hc := hash.EdgeCut()
	if mc := metis.EdgeCut(); mc >= hc {
		t.Errorf("metis cut %d should beat hash %d", mc, hc)
	}
	if fc := fennel.EdgeCut(); fc >= hc {
		t.Errorf("fennel cut %d should beat hash %d", fc, hc)
	}
	if lc := ldg.EdgeCut(); lc >= hc {
		t.Errorf("ldg cut %d should beat hash %d", lc, hc)
	}
	if tc := twod.EdgeCut(); tc >= hc/4 {
		t.Errorf("2d cut %d should crush hash %d on a grid", tc, hc)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"hash", "range", "fennel", "ldg", "metis", "2d"} {
		s, err := ByName(want)
		if err != nil || s.Name() != want {
			t.Fatalf("ByName(%q): %v, %v", want, s, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	g := gen.Random(10, 10, 1)
	if _, err := (Hash{}).Partition(g, 0); err == nil {
		t.Fatal("0 workers should fail")
	}
	if _, err := (Hash{}).Partition(graph.New(), 2); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestBuildFragmentsInvariants(t *testing.T) {
	g := gen.Random(300, 900, 11)
	asg, err := Fennel{}.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	layout := Build(g, asg)
	if len(layout.Fragments) != 6 {
		t.Fatalf("want 6 fragments, got %d", len(layout.Fragments))
	}
	// 1. inner sets partition V
	seen := map[graph.ID]int{}
	for _, f := range layout.Fragments {
		for _, v := range f.Inner {
			seen[v]++
			if !f.IsInner(v) {
				t.Fatalf("IsInner inconsistent for %d", v)
			}
			if asg.Owner(v) != f.Index {
				t.Fatalf("inner %d of fragment %d owned by %d", v, f.Index, asg.Owner(v))
			}
		}
	}
	if len(seen) != g.NumVertices() {
		t.Fatalf("inner sets cover %d of %d vertices", len(seen), g.NumVertices())
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d inner in %d fragments", v, c)
		}
	}
	// 2. every edge of g is stored exactly once, on its source's fragment,
	// and outer endpoints exist as copies with labels
	edgeCount := 0
	for _, f := range layout.Fragments {
		for _, u := range f.Inner {
			edgeCount += len(f.G.Out(u))
			for _, e := range f.G.Out(u) {
				if !f.G.Has(e.To) {
					t.Fatalf("fragment %d: edge target %d missing", f.Index, e.To)
				}
			}
		}
		for _, o := range f.Outer {
			if f.IsInner(o) {
				t.Fatalf("outer %d marked inner", o)
			}
			if asg.Owner(o) == f.Index {
				t.Fatalf("outer copy %d owned locally", o)
			}
		}
	}
	if edgeCount != g.NumEdges() {
		t.Fatalf("fragments store %d edges, graph has %d", edgeCount, g.NumEdges())
	}
	// 3. Hosts lists owner + every fragment holding a copy, sorted — the
	// owner alone for a vertex nobody copied, nothing for an unknown vertex
	for _, v := range g.Vertices() {
		hosts := hostsOf(layout, v)
		ownerFound, copies := false, 0
		for i := 1; i < len(hosts); i++ {
			if hosts[i-1] >= hosts[i] {
				t.Fatalf("hosts of %d not sorted: %v", v, hosts)
			}
		}
		for _, h := range hosts {
			if h == asg.Owner(v) {
				ownerFound = true
			} else if !layout.Fragments[h].G.Has(v) {
				t.Fatalf("Hosts says %d hosts %d but fragment lacks it", h, v)
			}
		}
		if !ownerFound {
			t.Fatalf("hosts of %d miss its owner", v)
		}
		for _, f := range layout.Fragments {
			if f.G.Has(v) && !f.IsInner(v) {
				copies++
			}
		}
		if len(hosts) != 1+copies {
			t.Fatalf("Hosts(%d) = %v, but %d fragments hold a copy", v, hosts, copies)
		}
	}
	if hs := hostsOf(layout, graph.ID(1<<40)); hs != nil {
		t.Fatalf("Hosts of a vertex the graph lacks = %v, want nil", hs)
	}
	// 5. border = outer ∪ innerBorder, sorted, consistent with placement
	for _, f := range layout.Fragments {
		border := f.Border()
		for i := 1; i < len(border); i++ {
			if border[i-1] >= border[i] {
				t.Fatalf("border of %d not sorted", f.Index)
			}
		}
		for _, b := range f.InnerBorder {
			hosts := hostsOf(layout, b)
			if len(hosts) < 2 {
				t.Fatalf("inner border %d should have copies elsewhere: %v", b, hosts)
			}
		}
	}
}

func TestBuildPreservesLabelsOnCopies(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 100, Products: 5, Follows: 3, AdoptP: 0.5, Seed: 3})
	asg, _ := Hash{}.Partition(g, 4)
	layout := Build(g, asg)
	for _, f := range layout.Fragments {
		for _, o := range f.Outer {
			if f.G.Label(o) != g.Label(o) {
				t.Fatalf("outer copy %d lost its label", o)
			}
		}
	}
}

func TestBuildExpandedContainsNeighborhoods(t *testing.T) {
	g := gen.Random(150, 450, 7)
	asg, _ := Hash{}.Partition(g, 5)
	d := 2
	layout := BuildExpanded(g, asg, d)
	for _, f := range layout.Fragments {
		// the region by its own by-ID breadth-first search over both directions
		region := map[graph.ID]bool{}
		frontier := f.Inner
		for _, v := range frontier {
			region[v] = true
		}
		for hop := 0; hop < d; hop++ {
			var next []graph.ID
			for _, u := range frontier {
				for _, e := range append(g.Out(u), g.In(u)...) {
					if !region[e.To] {
						region[e.To] = true
						next = append(next, e.To)
					}
				}
			}
			frontier = next
		}
		for v := range region {
			if !f.G.Has(v) {
				t.Fatalf("fragment %d misses %d from its %d-hop region", f.Index, v, d)
			}
		}
		// every edge of g inside the region must be present
		for v := range region {
			for _, e := range g.Out(v) {
				if region[e.To] && !hasEdge(f.G, v, e.To) {
					t.Fatalf("fragment %d misses edge %d->%d", f.Index, v, e.To)
				}
			}
		}
	}
}

func hasEdge(g *graph.Graph, u, v graph.ID) bool {
	for _, e := range g.Out(u) {
		if e.To == v {
			return true
		}
	}
	return false
}

func TestQualityMeasure(t *testing.T) {
	g := gen.RoadGrid(10, 10, 1)
	asg, _ := Range{}.Partition(g, 4)
	q := Measure("range", asg)
	if q.Strategy != "range" || q.Workers != 4 {
		t.Fatal("metadata wrong")
	}
	if q.EdgeCut <= 0 || q.CutFraction <= 0 || q.CutFraction > 1 {
		t.Fatalf("cut stats implausible: %+v", q)
	}
	if q.BorderNodes <= 0 || q.BorderNodes > g.NumVertices() {
		t.Fatalf("border count implausible: %d", q.BorderNodes)
	}
}

func TestAssignmentPropertyOwnersInRange(t *testing.T) {
	f := func(seed int64, nw uint8) bool {
		n := 1 + int(nw%9)
		g := gen.Random(20+int(uint(seed)%100), 60, seed)
		for _, strat := range Strategies() {
			asg, err := strat.Partition(g, n)
			if err != nil {
				return false
			}
			if asg.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedGraphFragments(t *testing.T) {
	g := graph.NewUndirected()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	asg := NewAssignment(g, 2)
	asg.SetOwner(1, 0)
	asg.SetOwner(2, 0)
	asg.SetOwner(3, 1)
	asg.SetOwner(4, 1)
	layout := Build(g, asg)
	// the cut edge 2-3 must be visible from both sides
	if !hasEdge(layout.Fragments[0].G, 2, 3) {
		t.Fatal("fragment 0 misses cut edge 2-3")
	}
	if !hasEdge(layout.Fragments[1].G, 3, 2) {
		t.Fatal("fragment 1 misses cut edge 3-2")
	}
}
