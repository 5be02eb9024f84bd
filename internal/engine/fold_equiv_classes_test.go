package engine_test

import (
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/queries"
	"grape/internal/seq"
	"grape/internal/simulate"
	"grape/internal/vertexcentric"
)

// audited runs one query class on the in-process bus with every superstep's
// fold held to the map-and-sort reference (engine.AuditedRun).
func audited[Q, V, R any](t *testing.T, g *graph.Graph, prog engine.Program[Q, V, R], q Q, opts engine.Options) {
	t.Helper()
	opts.Workers = 4
	layout, err := engine.BuildLayout(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.AuditedRun(t, layout, prog, q, opts); err != nil {
		t.Fatalf("%s: %v", prog.Name(), err)
	}
}

// TestFoldEquivalenceAllClasses: the seven query classes, each on a graph
// that takes it through several supersteps where the class has any, plus the
// vertex-centric adapter, whose variables are consumed queues.
func TestFoldEquivalenceAllClasses(t *testing.T) {
	var check engine.Options // the order check runs on every fold
	audited(t, gen.RoadGrid(24, 24, 1), queries.SSSP{}, queries.SSSPQuery{Source: 0}, check)
	audited(t, gen.PreferentialAttachment(800, 3, 2), queries.CC{}, queries.CCQuery{}, check)

	simG := gen.Random(150, 450, 21)
	for i, v := range simG.SortedVertices() {
		simG.AddVertex(v, []string{"a", "b", "c"}[i%3])
	}
	simP := graph.New()
	simP.AddVertex(0, "a")
	simP.AddVertex(1, "b")
	simP.AddEdge(0, 1, 1)
	simP.AddEdge(1, 0, 1)
	audited(t, simG, queries.Sim{}, queries.SimQuery{Pattern: simP}, check)

	subG := gen.Random(80, 240, 3)
	for i, v := range subG.SortedVertices() {
		subG.AddVertex(v, []string{"x", "y"}[i%2])
	}
	subP := graph.New()
	subP.AddVertex(0, "x")
	subP.AddVertex(1, "y")
	subP.AddEdge(0, 1, 1)
	subQ := queries.SubIsoQuery{Pattern: subP}
	audited(t, subG, queries.SubIso{}, subQ, engine.Options{ExpandHops: queries.SubIso{}.Radius(subQ)})

	kwG := gen.PreferentialAttachment(400, 3, 5)
	gen.AttachKeywords(kwG, []string{"db", "graph", "ml"}, 2, 0.15, 31)
	audited(t, kwG, queries.Keyword{}, queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 12, UseIndex: true}, check)

	cfCfg := seq.DefaultCFConfig()
	cfCfg.Epochs = 4
	ratings := gen.Ratings(gen.RatingsConfig{Users: 60, Items: 15, RatingsPerUser: 6, Factors: 4, Noise: 0.1, Seed: 5})
	audited(t, ratings, queries.CF{}, queries.CFQuery{Cfg: cfCfg}, engine.Options{})

	audited(t, gen.Random(120, 480, 7), queries.TriCount{}, queries.TriCountQuery{}, engine.Options{ExpandHops: 1})

	audited(t, gen.RoadGrid(10, 10, 4), simulate.Adapter{Prog: vertexcentric.SSSPProgram{Source: 0}}, simulate.Query{}, engine.Options{})
}
