package grape_test

import (
	"context"
	"math"
	"testing"

	"grape"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/seq"
)

func TestFacadeSSSP(t *testing.T) {
	g := grape.RoadGrid(20, 20, 1)
	dists, stats, err := grape.RunSSSP(context.Background(), g, 0, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(g, 0)
	if len(dists) != len(want) {
		t.Fatalf("reach: %d vs %d", len(dists), len(want))
	}
	for v, d := range want {
		if math.Abs(dists[v]-d) > 1e-9 {
			t.Fatalf("vertex %d: %g vs %g", v, dists[v], d)
		}
	}
	if stats == nil || stats.Supersteps < 1 {
		t.Fatal("stats missing")
	}
}

func TestFacadeCC(t *testing.T) {
	g := grape.SocialNetwork(300, 3, 2)
	comp, _, err := grape.RunCC(context.Background(), g, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Components(g)
	for v, c := range want {
		if comp[v] != c {
			t.Fatalf("vertex %d: %d vs %d", v, comp[v], c)
		}
	}
}

func TestFacadeSimAndSubIso(t *testing.T) {
	g := grape.SocialCommerce(300, 10, 3)
	p, err := grape.PatternByName("follows-recommend")
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := grape.RunSim(context.Background(), g, p, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := grape.RunSubIso(context.Background(), g, p, 0, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("expected matches on the commerce graph")
	}
	// embedding images must appear in the simulation result (sim ⊇ subiso)
	inSim := map[grape.ID]map[grape.ID]bool{}
	for u, vs := range sim {
		inSim[u] = map[grape.ID]bool{}
		for _, v := range vs {
			inSim[u][v] = true
		}
	}
	for _, m := range matches {
		for u, v := range m {
			if !inSim[u][v] {
				t.Fatalf("subiso image %d of %d not in simulation", v, u)
			}
		}
	}
}

func TestFacadeKeyword(t *testing.T) {
	g := grape.SocialNetwork(500, 4, 4)
	grape.AttachKeywords(g, []string{"db", "ml"}, 2, 0.1, 4)
	roots, _, err := grape.RunKeyword(context.Background(), g, []string{"db", "ml"}, 5, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(roots); i++ {
		if roots[i-1].Score > roots[i].Score {
			t.Fatal("keyword results not ranked")
		}
	}
}

func TestFacadeCF(t *testing.T) {
	g := grape.Ratings(120, 40, 10, 5)
	res, _, err := grape.RunCF(context.Background(), g, 12, grape.Options{Workers: 4, Strategy: partition.Hash{}}) // RMSE depends on the cut
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSE <= 0 || res.RMSE > 1.5 {
		t.Fatalf("implausible RMSE %.3f", res.RMSE)
	}
}

func TestFacadeGPAR(t *testing.T) {
	g := grape.SocialCommerce(600, 10, 6)
	res, _, err := grape.EvalRule(context.Background(), g, grape.Example2Rule(0.8), grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Support == 0 {
		t.Fatal("rule should fire on the planted graph")
	}
}

func TestFacadeRegistryAndStrategies(t *testing.T) {
	if len(grape.Library()) < 6 {
		t.Fatalf("library too small: %d", len(grape.Library()))
	}
	if len(grape.Strategies()) != 6 {
		t.Fatalf("want 6 strategies, got %d", len(grape.Strategies()))
	}
	if _, err := grape.StrategyByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
	g := grape.RoadGrid(10, 10, 1)
	res, _, err := grape.RunProgram(context.Background(), "cc", g, grape.Options{Workers: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(map[grape.ID]grape.ID); !ok {
		t.Fatalf("unexpected result type %T", res)
	}
}

func TestFacadeSessions(t *testing.T) {
	g := grape.RoadGrid(15, 15, 2)
	s, dists, _, err := grape.NewSession(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0}, grape.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	far := grape.ID(15*15 - 1)
	before := dists[far]
	after, _, err := s.Update(context.Background(), []grape.EdgeUpdate{{From: 0, To: far, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if after[far] != 0.5 || before <= 0.5 {
		t.Fatalf("shortcut not applied: before %.1f after %.1f", before, after[far])
	}

	cs, comp, _, err := grape.NewSession(context.Background(), grape.New(), queries.CC{}, queries.CCQuery{}, grape.Options{})
	if err == nil {
		_ = cs
		_ = comp
		t.Fatal("empty graph should fail to partition")
	}
}

// minProg is a tiny custom PIE program exercising the generic facade
// surface (Run, Register, NewSession): it floods the minimum
// vertex ID through the graph.
type minProg struct{}

type minQuery struct{}

func (minProg) Name() string { return "facade-minflood" }
func (minProg) Spec() grape.VarSpec[int64] {
	return grape.VarSpec[int64]{
		Default: 1 << 40,
		Agg: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		Less: func(a, b int64) bool { return a < b },
	}
}
func (minProg) PEval(_ minQuery, ctx *grape.Context[int64]) error {
	for _, v := range ctx.Frag.G.Vertices() {
		ctx.Set(v, int64(v))
	}
	return flood(ctx, ctx.Frag.G.Vertices())
}
func (minProg) IncEval(_ minQuery, ctx *grape.Context[int64]) error {
	return flood(ctx, ctx.Updated())
}
func flood(ctx *grape.Context[int64], seeds []grape.ID) error {
	queue := append([]grape.ID(nil), seeds...)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range ctx.Frag.G.Out(u) {
			ctx.AddWork(1)
			if ctx.Get(u) < ctx.Get(e.To) {
				ctx.Set(e.To, ctx.Get(u))
				queue = append(queue, e.To)
			}
		}
	}
	return nil
}
func (minProg) Assemble(_ minQuery, ctxs []*grape.Context[int64]) (map[grape.ID]int64, error) {
	out := map[grape.ID]int64{}
	for _, ctx := range ctxs {
		ctx.Vars(func(id grape.ID, v int64) {
			if ctx.Frag.IsInner(id) {
				out[id] = v
			}
		})
	}
	return out, nil
}

func TestFacadeCustomProgramCheckedRunAndSession(t *testing.T) {
	g := grape.RoadGrid(10, 10, 3)
	res, _, err := grape.Run(context.Background(), g, minProg{}, minQuery{}, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range res {
		if x != 0 {
			t.Fatalf("grid floods to 0 everywhere, vertex %d got %d", v, x)
		}
	}
	// generic session constructor (no Repairer: Update falls back to a
	// from-scratch reseed and still brings the answer up to date)
	s, res, _, err := grape.NewSession(context.Background(), g, minProg{}, minQuery{}, grape.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.NumVertices() {
		t.Fatalf("session assembled %d of %d", len(res), g.NumVertices())
	}
	upd, _, err := s.Update(context.Background(), []grape.EdgeUpdate{{From: 0, To: 5, W: 1}})
	if err != nil {
		t.Fatalf("reseed fallback must absorb updates for hook-less programs: %v", err)
	}
	if s.Broken() {
		t.Fatal("successful reseed must not break the session")
	}
	if len(upd) != g.NumVertices() {
		t.Fatalf("post-update answer covers %d of %d vertices", len(upd), g.NumVertices())
	}
	for v, x := range upd {
		if x != 0 {
			t.Fatalf("grid still floods to 0 after insert, vertex %d got %d", v, x)
		}
	}
}

// The registry refuses a second entry under one name, so the program is
// registered once per process, not once per run of the test (-count=N).
func init() {
	grape.Register(grape.MakeEntry(grape.EntrySpec[minQuery, int64, map[grape.ID]int64]{
		Prog:        minProg{},
		Description: "test",
		QueryHelp:   "(none)",
		Parse:       func(string) (minQuery, error) { return minQuery{}, nil },
		Canonical:   func(minQuery) string { return "" },
	}))
}

func TestFacadeRegisterAndRunProgramAs(t *testing.T) {
	g := grape.RoadGrid(6, 6, 1)
	// the typed accessor — no any-assertion at the call site
	res, _, err := grape.RunProgramAs[map[grape.ID]int64](context.Background(), "facade-minflood", g, grape.Options{Workers: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 36 {
		t.Fatal("registered program misbehaved")
	}
	// asking for the wrong result type errors instead of panicking
	if _, _, err := grape.RunProgramAs[[]string](context.Background(), "facade-minflood", g, grape.Options{Workers: 2}, ""); err == nil {
		t.Fatal("RunProgramAs with the wrong type parameter must fail")
	}
}

func TestFacadeDiscoverRules(t *testing.T) {
	g := grape.SocialCommerce(600, 8, 11)
	rules, err := grape.DiscoverRules(context.Background(), g, 5, 0.3, grape.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("mining should find the planted rule")
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	g := grape.New()
	g.AddLabeledEdge(1, 2, 1.5, "knows")
	if g.NumEdges() != 1 || !g.Directed() {
		t.Fatal("facade graph construction broken")
	}
	u := grape.NewUndirected()
	u.AddEdge(1, 2, 1)
	if u.Directed() {
		t.Fatal("undirected constructor broken")
	}
}
