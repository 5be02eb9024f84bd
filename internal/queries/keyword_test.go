package queries

import (
	"context"
	"math"
	"reflect"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/partition"
	"grape/internal/seq"
)

func TestKeywordMatchesSequential(t *testing.T) {
	vocab := []string{"db", "graph", "ml", "sys"}
	g := gen.ConnectedRandom(200, 600, 31)
	gen.AttachKeywords(g, vocab, 2, 0.15, 31)
	q := KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 12, UseIndex: true}
	want := seq.KeywordSearch(g, q.Keywords, q.Bound)
	for _, n := range []int{1, 3, 6} {
		got, _, err := engine.Run(context.Background(), g, Keyword{}, q,
			engine.Options{Workers: n, Strategy: partition.Fennel{}, CheckMonotonic: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d roots, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i].Root != want[i].Root || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("workers=%d: rank %d: got (%d,%g) want (%d,%g)",
					n, i, got[i].Root, got[i].Score, want[i].Root, want[i].Score)
			}
		}
	}
}

func TestKeywordIndexAndScanAgree(t *testing.T) {
	vocab := []string{"a", "b", "c"}
	g := gen.ConnectedRandom(120, 360, 7)
	gen.AttachKeywords(g, vocab, 2, 0.2, 7)
	qi := KeywordQuery{Keywords: []string{"a", "c"}, Bound: 10, UseIndex: true}
	qs := qi
	qs.UseIndex = false
	ri, _, err := engine.Run(context.Background(), g, Keyword{}, qi, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := engine.Run(context.Background(), g, Keyword{}, qs, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ri) != len(rs) {
		t.Fatalf("index vs scan: %d vs %d roots", len(ri), len(rs))
	}
	for i := range ri {
		if ri[i].Root != rs[i].Root {
			t.Fatalf("rank %d differs: %d vs %d", i, ri[i].Root, rs[i].Root)
		}
	}
}

func TestKeywordIndexReducesWork(t *testing.T) {
	// E9: the inverted index is built once and spares PEval a full property
	// scan per keyword, so its advantage grows with the keyword count.
	vocab := []string{"w1", "w2", "w3", "w4", "rare"}
	g := gen.ConnectedRandom(2000, 6000, 13)
	gen.AttachKeywords(g, vocab, 1, 0.01, 13)
	q := KeywordQuery{Keywords: []string{"rare", "w1", "w2", "w3"}, Bound: 3, UseIndex: true}
	_, si, err := engine.Run(context.Background(), g, Keyword{}, q, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q.UseIndex = false
	_, ss, err := engine.Run(context.Background(), g, Keyword{}, q, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if si.TotalWork() >= ss.TotalWork() {
		t.Fatalf("indexed PEval should do less work: %d vs %d", si.TotalWork(), ss.TotalWork())
	}
}

func TestKeywordNoHolders(t *testing.T) {
	g := gen.ConnectedRandom(50, 150, 3)
	got, _, err := engine.Run(context.Background(), g, Keyword{}, KeywordQuery{Keywords: []string{"missing"}, Bound: 5, UseIndex: true},
		engine.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("no holders -> no roots, got %d", len(got))
	}
}

func TestKeywordEmptyQueryRejected(t *testing.T) {
	g := gen.ConnectedRandom(10, 20, 1)
	if _, _, err := engine.Run(context.Background(), g, Keyword{}, KeywordQuery{}, engine.Options{Workers: 2}); err == nil {
		t.Fatal("expected error for empty keyword list")
	}
}

// TestKeywordParseRejectsUnanswerableQueries: a bound that is not a number
// >= 0 and an empty keyword are parse errors, not fixpoints that return
// nothing — or, for NaN, everything.
func TestKeywordParseRejectsUnanswerableQueries(t *testing.T) {
	e, err := engine.Lookup("keyword")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		ok    bool
	}{
		{"k=db,graph bound=4", true},
		{"k=db bound=0", true},
		{"k=db bound=+Inf", true},
		{"k=db,graph bound=NaN", false},
		{"k=db,graph bound=nan", false},
		{"k=db,graph bound=-1", false},
		{"k=db,graph bound=-Inf", false},
		{"k=db,,graph bound=4", false},
		{"k=,db bound=4", false},
		{"k=db, bound=4", false},
		{"k=db", false},
		{"bound=4", false},
	} {
		if _, err := e.Parse(c.query); (err == nil) != c.ok {
			t.Errorf("Parse(%q): err = %v, want ok=%v", c.query, err, c.ok)
		}
	}
}

// TestKeywordEqualsSequentialExactly: on 1, 3 and 8 fragments under three
// strategies the roots, their order and every distance equal
// seq.KeywordSearch's bit for bit — both sides take the least fixpoint of the
// same float equations, whatever the relaxation order.
func TestKeywordEqualsSequentialExactly(t *testing.T) {
	g := gen.PreferentialAttachment(1500, 4, 9)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.1, 9)
	g.Freeze()
	q := KeywordQuery{Keywords: []string{"db", "graph", "ml"}, Bound: 5, UseIndex: true}
	want := seq.KeywordSearch(g, q.Keywords, q.Bound)
	if len(want) < 100 {
		t.Fatalf("test wants a populated answer, seq finds %d roots", len(want))
	}
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.TwoD{Cols: 40}, partition.Range{}} {
		for _, n := range []int{1, 3, 8} {
			got, _, err := engine.Run(context.Background(), g, Keyword{}, q,
				engine.Options{Workers: n, Strategy: strat, CheckMonotonic: true})
			if err != nil {
				t.Fatalf("%s/%d: %v", strat.Name(), n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: %d roots differ from seq's %d", strat.Name(), n, len(got), len(want))
			}
		}
	}
}

// TestKeywordTrafficPinned holds the benchmark's keyword op (its social
// graph at seed 1, 8 hash fragments) to the supersteps, messages and bytes it
// took before the relaxation kept its distances in a flat array: what a worker
// publishes per superstep is a property of the fixpoint, not of the kernel.
func TestKeywordTrafficPinned(t *testing.T) {
	g := gen.PreferentialAttachment(10000, 5, 1)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	g.Freeze()
	q := KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 4, UseIndex: true}
	_, st, err := engine.Run(context.Background(), g, Keyword{}, q, engine.Options{Workers: 8, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Supersteps != 4 || st.Messages != 48 || st.Bytes != 1440264 {
		t.Fatalf("supersteps %d, messages %d, bytes %d; want 4, 48, 1440264", st.Supersteps, st.Messages, st.Bytes)
	}
}
