package queries

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/seq"
)

func TestKeywordMatchesSequential(t *testing.T) {
	vocab := []string{"db", "graph", "ml", "sys"}
	g := gen.ConnectedRandom(200, 600, 31)
	gen.AttachKeywords(g, vocab, 2, 0.15, 31)
	q := KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 12, UseIndex: true}
	for _, n := range []int{1, 3, 6} {
		got, _, err := engine.Run(context.Background(), g, Keyword{}, q,
			engine.Options{Workers: n, Strategy: partition.Fennel{}})
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		mustAgree(t, fmt.Sprintf("workers=%d", n), "keyword", g, q, got)
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

// oracleKeywordSearch is keyword search written without the flat column
// kernel and the radix ranking that the engine and seq.KeywordSearch share:
// one distance array per keyword relaxed through RelaxIdx's get/set
// callbacks, and a comparison sort by (score, root). g must be frozen.
func oracleKeywordSearch(g *graph.Graph, keywords []string, bound float64) []seq.KeywordMatch {
	dists := make([][]float64, len(keywords))
	for k, w := range keywords {
		dist := make([]float64, g.NumVertices())
		var seeds []int32
		for i := range dist {
			dist[i] = seq.Inf
			if slices.Contains(g.PropsAt(int32(i)), w) {
				dist[i] = 0
				seeds = append(seeds, int32(i))
			}
		}
		seq.RelaxIdx(g, true, seeds,
			func(i int32) float64 { return dist[i] },
			func(i int32, d float64) { dist[i] = d })
		dists[k] = dist
	}
	var out []seq.KeywordMatch
roots:
	for i, v := range g.Vertices() {
		m := seq.KeywordMatch{Root: v, Dists: make([]float64, len(keywords))}
		for k := range keywords {
			d := dists[k][i]
			if d == seq.Inf || d > bound {
				continue roots
			}
			m.Dists[k] = d
			m.Score += d
		}
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b seq.KeywordMatch) int {
		if c := cmp.Compare(a.Score, b.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Root, b.Root)
	})
	return out
}

// TestKeywordEqualsSequentialExactly: on 1, 3 and 8 fragments under three
// strategies the roots, their order and every distance equal
// seq.KeywordSearch's bit for bit (keyword's Entry.Check) — both sides take
// the least fixpoint of the same float equations, whatever the relaxation
// order. seq.KeywordSearch in turn equals oracleKeywordSearch, which shares
// neither its kernel nor its ranking with the engine; that comparison calls
// seq directly, since it tests seq itself.
func TestKeywordEqualsSequentialExactly(t *testing.T) {
	g := gen.PreferentialAttachment(1500, 4, 9)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.1, 9)
	g.Freeze()
	q := KeywordQuery{Keywords: []string{"db", "graph", "ml"}, Bound: 5, UseIndex: true}
	want := seq.KeywordSearch(g, q.Keywords, q.Bound)
	if len(want) < 100 {
		t.Fatalf("test wants a populated answer, seq finds %d roots", len(want))
	}
	if oracle := oracleKeywordSearch(g, q.Keywords, q.Bound); !reflect.DeepEqual(want, oracle) {
		t.Fatalf("seq.KeywordSearch's %d roots differ from the oracle's %d", len(want), len(oracle))
	}
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.TwoD{Cols: 40}, partition.Range{}} {
		for _, n := range []int{1, 3, 8} {
			got, _, err := engine.Run(context.Background(), g, Keyword{}, q,
				engine.Options{Workers: n, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%d: %v", strat.Name(), n, err)
			}
			mustAgree(t, fmt.Sprintf("%s/%d", strat.Name(), n), "keyword", g, q, got)
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

// TestKeywordInfiniteBoundMatchesSequential: bound=inf parses, and the engine
// then answers what seq.KeywordSearch answers — the roots that reach every
// keyword — not every root that reaches any keyword, scored +Inf, which no
// JSON encoder accepts.
func TestKeywordInfiniteBoundMatchesSequential(t *testing.T) {
	g := graph.New()
	for _, e := range [][2]graph.ID{{0, 1}, {2, 1}, {2, 4}, {3, 4}, {5, 0}} {
		g.AddEdge(e[0], e[1], 1)
	}
	g.SetProps(1, []string{"db"})
	g.SetProps(4, []string{"graph"})
	g.Freeze()
	q, err := parseKeyword("k=db,graph bound=inf")
	if err != nil {
		t.Fatal(err)
	}
	want := seq.KeywordSearch(g, q.Keywords, q.Bound) // seq itself under test, against the known answer
	if len(want) != 1 || want[0].Root != 2 {
		t.Fatalf("seq answers %v, want root 2 alone", want)
	}
	if oracle := oracleKeywordSearch(g, q.Keywords, q.Bound); !reflect.DeepEqual(want, oracle) {
		t.Fatalf("seq answers %v, the oracle %v", want, oracle)
	}
	for _, n := range []int{1, 2, 3} {
		got, _, err := engine.Run(context.Background(), g, Keyword{}, q, engine.Options{Workers: n, Strategy: partition.Hash{}})
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		mustAgree(t, fmt.Sprintf("workers=%d", n), "keyword", g, q, got)
		if _, err := json.Marshal(got); err != nil {
			t.Fatalf("workers=%d: answer does not encode: %v", n, err)
		}
	}
}

// assembleProbe is Keyword whose Assemble first counts the allocations of a
// warmed Keyword.Assemble over the run's contexts.
type assembleProbe struct {
	Keyword
	allocs *float64
}

func (p assembleProbe) Assemble(q KeywordQuery, ctxs []*engine.Context[kwVec]) ([]seq.KeywordMatch, error) {
	*p.allocs = testing.AllocsPerRun(10, func() { p.Keyword.Assemble(q, ctxs) })
	return p.Keyword.Assemble(q, ctxs)
}

// TestKeywordAssembleAllocatesOnlyTheAnswer: on the benchmark's keyword op,
// resident over 8 hash fragments, Assemble allocates two objects — the
// answer's matches and their distance arena. The ranking scratch is pooled.
func TestKeywordAssembleAllocatesOnlyTheAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	g := gen.PreferentialAttachment(10000, 5, 1)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	g.Freeze()
	layout, err := engine.BuildLayout(g, engine.Options{Workers: 8, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	q := KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 4, UseIndex: true}
	got, _, err := engine.RunOnLayout(context.Background(), layout, assembleProbe{allocs: &allocs}, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 1000 {
		t.Fatalf("test wants a populated answer, got %d roots", len(got))
	}
	if allocs != 2 {
		t.Fatalf("a warmed keyword Assemble allocates %.1f objects, want 2 (the answer)", allocs)
	}
}

// TestKeywordAssembleRefusesShortVector: a distance vector shorter than the
// query's keyword list fails Assemble with an error, not a slice panic.
func TestKeywordAssembleRefusesShortVector(t *testing.T) {
	layout, err := engine.BuildLayout(gen.RoadGrid(2, 2, 1), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &engine.Context[kwVec]{Frag: layout.Fragments[0]}
	ctx.SetLocalAt(0, kwVec{1})
	_, err = Keyword{}.Assemble(KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 10}, []*engine.Context[kwVec]{ctx})
	if err == nil || !strings.Contains(err.Error(), "holds 1 distances for 2 keywords") {
		t.Fatalf("a one-distance vector for two keywords: %v", err)
	}
}
