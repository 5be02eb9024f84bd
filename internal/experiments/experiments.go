// Package experiments encodes every experiment of the paper's evaluation as
// a reusable, deterministic function: Table 1 (the four-system SSSP
// comparison), the Section 3 partition-impact numbers, the Fig. 3(4)
// scale-up analytics, the Example 1 bounded-IncEval claims, the Fig. 4 GPAR
// application, the Simulation Theorem check, and the indexing ablation.
// cmd/grape-bench prints them; bench_test.go wraps them in testing.B; tests
// assert their qualitative shape (who wins, what grows, what shrinks).
//
// Every column is an exact count: supersteps, messages and bytes crossing
// the worker boundary, and work units (total and critical path). All
// experiments run on the in-process bus so byte columns stay comparable
// across engines; the socket transport (internal/transport) reports measured
// encodings instead and is exercised by its own equivalence and smoke tests.
package experiments

import (
	"context"
	"fmt"
	"io"

	"grape/internal/blockcentric"
	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/gpar"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/simulate"
	"grape/internal/vertexcentric"
)

// Scale sizes the synthetic datasets. The defaults run the full matrix in
// seconds on a laptop; raise them to stress the engines.
type Scale struct {
	RoadRows, RoadCols int   // US-road stand-in (Table 1)
	SocialN            int   // LiveJournal stand-in vertices (partition impact)
	SocialDeg          int   // LiveJournal stand-in out-degree
	People             int   // Weibo stand-in (GPAR)
	Products           int   // Weibo stand-in products
	Users, Items       int   // ratings graph (CF)
	Seed               int64 // master seed
}

// DefaultScale is the scale cmd/grape-bench runs unless its flags say
// otherwise.
func DefaultScale() Scale {
	return Scale{
		RoadRows: 128, RoadCols: 128,
		SocialN: 20000, SocialDeg: 5,
		People: 2000, Products: 20,
		Users: 400, Items: 80,
		Seed: 1,
	}
}

// Road returns the Table 1 road-network stand-in.
func (s Scale) Road() *graph.Graph { return gen.RoadGrid(s.RoadRows, s.RoadCols, s.Seed) }

// Social returns the LiveJournal stand-in.
func (s Scale) Social() *graph.Graph {
	return gen.PreferentialAttachment(s.SocialN, s.SocialDeg, s.Seed)
}

// Commerce returns the Weibo stand-in.
func (s Scale) Commerce() *graph.Graph {
	return gen.SocialCommerce(gen.SocialCommerceConfig{
		People: s.People, Products: s.Products, Follows: 4, AdoptP: 0.9, Seed: s.Seed,
	})
}

// Row is one line of an experiment report. It carries no time column: each
// engine's Stats.WallTime covers a different span (GRAPE's starts at the
// fixpoint, the baselines' include partitioning and block building).
type Row struct {
	System     string
	Category   string
	Workers    int
	Supersteps int
	CommMB     float64
	Messages   int64
	Work       int64 // total over all workers and supersteps
	// CriticalWork is the busiest worker's work summed over the supersteps:
	// the BSP critical path.
	CriticalWork int64
	Note         string
}

func (r Row) String() string {
	return fmt.Sprintf("%-20s %-22s %3dw %6d steps %14d crit-work %12.4f MB %12d msgs  %s",
		r.System, r.Category, r.Workers, r.Supersteps, r.CriticalWork, r.CommMB, r.Messages, r.Note)
}

// PrintRows writes rows under a header.
func PrintRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for _, r := range rows {
		fmt.Fprintln(w, r.String())
	}
}

func rowFromStats(system, category string, st *metrics.Stats, note string) Row {
	return Row{
		System:       system,
		Category:     category,
		Workers:      st.Workers,
		Supersteps:   st.Supersteps,
		CommMB:       st.MB(),
		Messages:     st.Messages,
		Work:         st.TotalWork(),
		CriticalWork: st.CriticalWork(),
		Note:         note,
	}
}

// Table1 reproduces the shape of the paper's Table 1: SSSP over the road
// network on 24 workers across the four systems. Each system runs with its
// typical deployment partitioning: the vertex-centric systems hash (their
// default), the block- and fragment-based systems a structure-aware
// partition (Blogel brings its Voronoi blocks, GRAPE lets the user pick —
// this is exactly the paper's point (3) about inheriting graph-level
// optimizations).
func Table1(ctx context.Context, sc Scale, workers int) ([]Row, error) {
	g := sc.Road()
	src := graph.ID(0)
	var rows []Row

	if _, st, err := vertexcentric.Run(g, vertexcentric.SSSPProgram{Source: src},
		vertexcentric.Config{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("Giraph-like", "vertex-centric", st, "hash partition, no combiner"))
	}

	if _, st, err := vertexcentric.RunGAS(g, vertexcentric.GASSSSP{Source: src},
		vertexcentric.GASConfig{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("GraphLab-like", "vertex-centric (GAS)", st, "hash partition, sync engine"))
	}

	spatial := partition.TwoD{Cols: sc.RoadCols} // the best built-in for grids
	if _, st, err := blockcentric.Run(g, blockcentric.SSSPBlock{Source: src},
		blockcentric.Config{Workers: workers, Strategy: spatial, BlocksPerWorker: 8}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("Blogel-like", "block-centric", st, "2D parts, 8 blocks/worker"))
	}

	if _, st, err := engine.Run(ctx, g, queries.SSSP{}, queries.SSSPQuery{Source: src},
		engine.Options{Workers: workers, Strategy: spatial}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("GRAPE", "auto-parallelization", st, "2D parts, PIE/SSSP"))
	}
	return rows, nil
}

// PartitionImpact reproduces the Section 3 demo numbers: SSSP over the
// LiveJournal stand-in under different partition strategies — the paper
// reports 18.3 s / 7.5M messages with METIS vs 30 s / 40M messages with
// stream-based partitioning on 16 nodes; the shape is "better cut ⇒ fewer
// messages and less time".
func PartitionImpact(ctx context.Context, sc Scale, workers int) ([]Row, error) {
	g := sc.Social()
	var rows []Row
	for _, strat := range []partition.Strategy{partition.MetisLike{}, partition.Fennel{}, partition.Hash{}} {
		asg, err := strat.Partition(g, workers)
		if err != nil {
			return nil, err
		}
		q := partition.Measure(strat.Name(), asg)
		layout := partition.Build(g, asg)
		_, st, err := engine.RunOnLayout(ctx, layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowFromStats("GRAPE/"+strat.Name(), "partition impact", st,
			fmt.Sprintf("edge cut %d (%.1f%%), border %d", q.EdgeCut, 100*q.CutFraction, q.BorderNodes)))
	}
	return rows, nil
}

// ScaleUp reproduces the Fig. 3(4) analytics: GRAPE SSSP and CC as the
// worker count grows. The critical-path work falls as fragments shrink; the
// experiment runs on a 2x-per-side (4x vertices) road grid relative to sc so
// fragments stay large at every worker count. Communication grows slowly
// with workers (border size follows the partition perimeter).
func ScaleUp(ctx context.Context, sc Scale, workerCounts []int) ([]Row, error) {
	g := gen.RoadGrid(2*sc.RoadRows, 2*sc.RoadCols, sc.Seed)
	spatial := partition.TwoD{Cols: 2 * sc.RoadCols}
	var rows []Row
	for _, n := range workerCounts {
		_, st, err := engine.Run(ctx, g, queries.SSSP{}, queries.SSSPQuery{Source: 0},
			engine.Options{Workers: n, Strategy: spatial})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowFromStats("GRAPE/sssp", "scale-up", st, ""))
	}
	for _, n := range workerCounts {
		_, st, err := engine.Run(ctx, g, queries.CC{}, queries.CCQuery{},
			engine.Options{Workers: n, Strategy: spatial})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowFromStats("GRAPE/cc", "scale-up", st, ""))
	}
	return rows, nil
}

// BoundedRow reports the per-superstep behaviour behind Example 1(d): a
// bounded IncEval touches work proportional to the changes, not |F_i| —
// visible in the tail of the run, where the bounded variant's work decays to
// almost nothing while the recompute variant keeps paying a full fragment
// scan.
type BoundedRow struct {
	Superstep     int
	MaxWork       int64 // critical-path work, bounded IncEval
	RecomputeWork int64 // critical-path work, recompute-per-round variant
	FragmentSz    int   // average fragment size (vertices) for reference
}

// BoundedIncEval contrasts GRAPE's bounded IncEval with a recompute-from-
// scratch variant on the same layout: total work and the per-superstep decay
// demonstrate the boundedness claim of Example 1.
func BoundedIncEval(ctx context.Context, sc Scale, workers int) (bounded, recompute Row, steps []BoundedRow, err error) {
	g := sc.Road()
	asg, err := partition.MetisLike{}.Partition(g, workers)
	if err != nil {
		return
	}
	layout := partition.Build(g, asg)
	_, stB, err := engine.RunOnLayout(ctx, layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
	if err != nil {
		return
	}
	layout2 := partition.Build(g, asg)
	_, stR, err := engine.RunOnLayout(ctx, layout2, RecomputeSSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
	if err != nil {
		return
	}
	bounded = rowFromStats("GRAPE/inc-eval", "bounded IncEval", stB, "Ramalingam-Reps relaxation")
	recompute = rowFromStats("GRAPE/recompute", "full re-PEval each round", stR, "Dijkstra from scratch per superstep")
	avgFrag := g.NumVertices() / workers
	maxAt := func(st *metrics.Stats, r int) int64 {
		if r >= len(st.WorkPerStep) {
			return 0
		}
		var max int64
		for _, w := range st.WorkPerStep[r] {
			if w > max {
				max = w
			}
		}
		return max
	}
	rounds := len(stB.WorkPerStep)
	if len(stR.WorkPerStep) > rounds {
		rounds = len(stR.WorkPerStep)
	}
	for r := 0; r < rounds; r++ {
		steps = append(steps, BoundedRow{
			Superstep:     r + 1,
			MaxWork:       maxAt(stB, r),
			RecomputeWork: maxAt(stR, r),
			FragmentSz:    avgFrag,
		})
	}
	return bounded, recompute, steps, nil
}

// GPARScale reproduces the Fig. 4 claim: the more workers, the faster GRAPE
// finds potential customers.
func GPARScale(ctx context.Context, sc Scale, workerCounts []int) ([]Row, error) {
	g := sc.Commerce()
	rule := gpar.Example2Rule(0.8)
	var rows []Row
	for _, n := range workerCounts {
		res, st, err := gpar.Eval(ctx, g, rule, engine.Options{Workers: n})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowFromStats("GRAPE/gpar", "social marketing", st,
			fmt.Sprintf("candidates %d, confidence %.2f", len(res.Candidates), res.Confidence)))
	}
	return rows, nil
}

// SimTheorem verifies the Simulation Theorem operationally: a vertex program
// runs under GRAPE with the same superstep count as natively. Both engines
// cut the graph the same way (hash, Giraph's), so their per-worker work
// compares too.
func SimTheorem(ctx context.Context, sc Scale, workers int) ([]Row, error) {
	g := sc.Social()
	var rows []Row
	native := vertexcentric.Config{Workers: workers, Strategy: partition.Hash{}}
	onGRAPE := engine.Options{Workers: workers, Strategy: native.Strategy}

	_, stN, err := vertexcentric.Run(g, vertexcentric.SSSPProgram{Source: 0}, native)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromStats("Pregel native", "simulation theorem", stN, "sssp"))
	_, stS, err := simulate.Run(ctx, g, vertexcentric.SSSPProgram{Source: 0}, onGRAPE)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromStats("Pregel on GRAPE", "simulation theorem", stS, "sssp"))

	pr := vertexcentric.PageRankProgram{Damping: 0.85, Iters: 10, N: g.NumVertices()}
	_, stN2, err := vertexcentric.Run(g, pr, native)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromStats("Pregel native", "simulation theorem", stN2, "pagerank"))
	_, stS2, err := simulate.Run(ctx, g, pr, onGRAPE)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromStats("Pregel on GRAPE", "simulation theorem", stS2, "pagerank"))
	return rows, nil
}

// IndexAblation reproduces experiment E9: keyword search PEval work with and
// without the Index Manager's inverted index.
func IndexAblation(ctx context.Context, sc Scale, workers int) ([]Row, error) {
	g := sc.Social()
	vocab := []string{"db", "graph", "ml", "sys", "net"}
	gen.AttachKeywords(g, vocab, 2, 0.05, sc.Seed)
	q := queries.KeywordQuery{Keywords: []string{"db", "graph", "ml"}, Bound: 4, UseIndex: true}
	var rows []Row
	_, stI, err := engine.Run(ctx, g, queries.Keyword{}, q, engine.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromStats("GRAPE/keyword+index", "graph-level optimization", stI, "inverted index"))
	q.UseIndex = false
	_, stS, err := engine.Run(ctx, g, queries.Keyword{}, q, engine.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromStats("GRAPE/keyword-scan", "graph-level optimization", stS, "full property scan"))
	return rows, nil
}

// QueryLibrary runs all six registered query classes end to end — the
// Section 3 walk-through — and reports one row each.
func QueryLibrary(ctx context.Context, sc Scale, workers int) ([]Row, error) {
	var rows []Row

	road := sc.Road()
	if _, st, err := engine.Run(ctx, road, queries.SSSP{}, queries.SSSPQuery{Source: 0},
		engine.Options{Workers: workers, Strategy: partition.MetisLike{}}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("sssp", "query library", st, "road grid"))
	}
	if _, st, err := engine.Run(ctx, road, queries.CC{}, queries.CCQuery{},
		engine.Options{Workers: workers, Strategy: partition.MetisLike{}}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("cc", "query library", st, "road grid"))
	}

	commerce := sc.Commerce()
	p, err := queries.PatternByName("follows-recommend")
	if err != nil {
		return nil, err
	}
	if _, st, err := engine.Run(ctx, commerce, queries.Sim{}, queries.SimQuery{Pattern: p},
		engine.Options{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("sim", "query library", st, "social commerce"))
	}
	if _, st, err := queries.RunSubIso(ctx, commerce, queries.SubIsoQuery{Pattern: p},
		engine.Options{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("subiso", "query library", st, "social commerce"))
	}

	kwg := sc.Social()
	gen.AttachKeywords(kwg, []string{"db", "graph", "ml"}, 2, 0.05, sc.Seed)
	if _, st, err := engine.Run(ctx, kwg, queries.Keyword{},
		queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 4, UseIndex: true},
		engine.Options{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("keyword", "query library", st, "social + keywords"))
	}

	ratings := gen.Ratings(gen.RatingsConfig{Users: sc.Users, Items: sc.Items, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: sc.Seed})
	cfg := queries.CFQuery{Cfg: cfgWithEpochs(10)}
	if res, st, err := engine.Run(ctx, ratings, queries.CF{}, cfg, engine.Options{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("cf", "query library", st, fmt.Sprintf("RMSE %.3f", res.RMSE)))
	}
	return rows, nil
}
