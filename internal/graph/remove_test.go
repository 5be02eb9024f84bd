package graph

import (
	"reflect"
	"testing"
)

func TestRemoveEdgeBasic(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 5)
	g.AddEdge(2, 3, 7)
	removed, ok := g.RemoveEdge(1, 2, "")
	if !ok || removed.W != 5 || removed.To != 2 {
		t.Fatalf("RemoveEdge(1,2) = %+v, %v", removed, ok)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("numEdges = %d, want 1", g.NumEdges())
	}
	if len(g.Out(1)) != 0 {
		t.Fatalf("out(1) = %v, want empty", g.Out(1))
	}
	if _, ok := g.RemoveEdge(1, 2, ""); ok {
		t.Fatal("second removal of the same edge should fail")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("failed removal must not change numEdges: %d", g.NumEdges())
	}
}

func TestRemoveEdgeMatchesLabel(t *testing.T) {
	g := New()
	g.AddLabeledEdge(1, 2, 1, "a")
	g.AddLabeledEdge(1, 2, 2, "b")
	if _, ok := g.RemoveEdge(1, 2, "c"); ok {
		t.Fatal("no label-c edge exists")
	}
	removed, ok := g.RemoveEdge(1, 2, "b")
	if !ok || removed.W != 2 {
		t.Fatalf("RemoveEdge label b = %+v, %v", removed, ok)
	}
	if out := g.Out(1); len(out) != 1 || out[0].Label != "a" {
		t.Fatalf("out(1) = %v, want the label-a edge", out)
	}
}

func TestRemoveEdgeParallelOneInstance(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 10)
	g.AddEdge(1, 2, 20)
	removed, ok := g.RemoveEdge(1, 2, "")
	if !ok || removed.W != 10 {
		t.Fatalf("first instance in adjacency order should go: %+v, %v", removed, ok)
	}
	if out := g.Out(1); len(out) != 1 || out[0].W != 20 {
		t.Fatalf("out(1) = %v, want the w=20 instance", out)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("numEdges = %d, want 1", g.NumEdges())
	}
}

func TestRemoveEdgeInMirror(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 5)
	g.AddEdge(3, 2, 6)
	if len(g.In(2)) != 2 { // force the lazy reverse adjacency
		t.Fatalf("in(2) = %v", g.In(2))
	}
	if _, ok := g.RemoveEdge(1, 2, ""); !ok {
		t.Fatal("removal failed")
	}
	in := g.In(2)
	if len(in) != 1 || in[0].To != 3 {
		t.Fatalf("in(2) = %v, want only the edge from 3", in)
	}
}

func TestRemoveEdgeUndirected(t *testing.T) {
	g := NewUndirected()
	g.AddEdge(1, 2, 5)
	g.AddEdge(2, 3, 6)
	if _, ok := g.RemoveEdge(2, 1, ""); !ok {
		t.Fatal("undirected removal via either endpoint should work")
	}
	if len(g.Out(1)) != 0 {
		t.Fatalf("out(1) = %v, want empty (reverse instance removed)", g.Out(1))
	}
	if len(g.Out(2)) != 1 {
		t.Fatalf("out(2) = %v, want only the edge to 3", g.Out(2))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("numEdges = %d, want 1", g.NumEdges())
	}
}

func TestRemoveEdgeUndirectedSelfLoop(t *testing.T) {
	g := NewUndirected()
	g.AddEdge(1, 1, 3)
	if _, ok := g.RemoveEdge(1, 1, ""); !ok {
		t.Fatal("self-loop removal failed")
	}
	if len(g.Out(1)) != 0 {
		t.Fatalf("out(1) = %v, want both stored copies gone", g.Out(1))
	}
	if g.NumEdges() != 0 {
		t.Fatalf("numEdges = %d, want 0", g.NumEdges())
	}
}

// TestRemoveEdgeFrozenCloneAliasSafety pins the contract that makes
// deletions safe under clones that share CSR arrays: a removal never writes
// through them.
func TestRemoveEdgeFrozenCloneAliasSafety(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 5)
	g.AddEdge(1, 3, 6)
	g.AddEdge(2, 3, 7)
	snapshot := g.Clone() // shares CSR arrays with g
	if in := snapshot.In(2); len(in) != 1 || in[0].To != 1 {
		t.Fatalf("clone in(2) = %v", in)
	}

	wantOut1 := append([]Edge(nil), snapshot.Out(1)...)
	if _, ok := g.RemoveEdge(1, 2, ""); !ok {
		t.Fatal("removal failed")
	}
	if !reflect.DeepEqual(snapshot.Out(1), wantOut1) {
		t.Fatalf("clone mutated through shared CSR: %v != %v", snapshot.Out(1), wantOut1)
	}
	if snapshot.NumEdges() != 3 || g.NumEdges() != 2 {
		t.Fatalf("edge counts: clone %d (want 3), graph %d (want 2)", snapshot.NumEdges(), g.NumEdges())
	}
	if in := snapshot.In(2); len(in) != 1 || in[0].To != 1 {
		t.Fatalf("clone in(2) = %v", in)
	}
	if in := g.In(2); len(in) != 0 {
		t.Fatalf("graph in(2) = %v, want empty", in)
	}
}

// TestRemoveEdgeFreezeThawCycleKeepsIndices covers the session lifecycle: a
// delete must keep every dense index stable so retained per-index state
// (contexts, union-finds) stays addressable.
func TestRemoveEdgeFreezeThawCycleKeepsIndices(t *testing.T) {
	g := New()
	for i := ID(0); i < 20; i++ {
		g.AddEdge(i, (i+1)%20, float64(i))
	}
	before := make(map[ID]int32)
	for _, id := range g.Vertices() {
		i, _ := g.Index(id)
		before[id] = i
	}
	if _, ok := g.RemoveEdge(4, 5, ""); !ok {
		t.Fatal("removal failed")
	}
	for _, id := range g.Vertices() {
		i, _ := g.Index(id)
		if before[id] != i {
			t.Fatalf("dense index of %d moved: %d -> %d", id, before[id], i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Out(4)) != 0 || len(g.In(5)) != 0 {
		t.Fatalf("edge survived: out(4)=%v in(5)=%v", g.Out(4), g.In(5))
	}
}
