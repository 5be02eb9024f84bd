package index

import (
	"slices"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

func TestInvertedAgainstScan(t *testing.T) {
	g := gen.Random(300, 600, 5)
	vocab := []string{"a", "b", "c", "d"}
	gen.AttachKeywords(g, vocab, 2, 0.3, 5)
	ix := BuildInverted(g)
	for _, w := range vocab {
		var want []int32
		for i, v := range g.Vertices() {
			if slices.Contains(g.Props(v), w) {
				want = append(want, int32(i))
			}
		}
		got := ix.Lookup(w)
		if len(got) != len(want) {
			t.Fatalf("keyword %q: index %d vs scan %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("keyword %q: entry %d differs", w, i)
			}
		}
	}
	if ix.Lookup("absent") != nil {
		t.Fatal("absent keyword should return nil")
	}
}

func TestInvertedKeywordsSorted(t *testing.T) {
	g := graph.New()
	g.AddVertex(1, "")
	g.SetProps(1, []string{"zebra", "apple", "zebra"})
	ix := BuildInverted(g)
	ws := ix.Keywords()
	if len(ws) != 2 || ws[0] != "apple" || ws[1] != "zebra" {
		t.Fatalf("keywords not sorted: %v", ws)
	}
	if got := ix.Lookup("zebra"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("a repeated keyword must index its vertex once, got %v", got)
	}
}
