// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark corresponds to one experiment of internal/experiments;
// cmd/grape-bench prints the same data as formatted tables.
//
// Custom metrics reported alongside ns/op:
//
//	comm-KB/run  bytes crossing worker boundaries
//	steps/run    BSP supersteps
//
// Wall times come from one host and say nothing about a cluster; the
// comm/steps counters are exact and carry the paper's shapes.
package grape_test

import (
	"context"
	"fmt"
	"testing"

	"grape"
	"grape/internal/blockcentric"
	"grape/internal/engine"
	"grape/internal/experiments"
	"grape/internal/gen"
	"grape/internal/gpar"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/seq"
	"grape/internal/simulate"
	"grape/internal/vertexcentric"
)

// benchScale sizes the datasets so the full -bench=. matrix completes in a
// couple of minutes on one core while keeping the structural properties.
func benchScale() experiments.Scale {
	return experiments.Scale{
		RoadRows: 96, RoadCols: 96,
		SocialN: 10000, SocialDeg: 5,
		People: 1500, Products: 15,
		Users: 300, Items: 60,
		Seed: 1,
	}
}

func report(b *testing.B, st *metrics.Stats) {
	b.Helper()
	b.ReportMetric(float64(st.Bytes)/1e3, "comm-KB/run")
	b.ReportMetric(float64(st.Supersteps), "steps/run")
}

// BenchmarkTable1SSSP is Table 1: SSSP over the road network on 24 workers,
// one sub-benchmark per system.
func BenchmarkTable1SSSP(b *testing.B) {
	sc := benchScale()
	g := sc.Road()
	const workers = 24
	spatial := partition.TwoD{Cols: sc.RoadCols}

	b.Run("giraph-like", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = vertexcentric.Run(g, vertexcentric.SSSPProgram{Source: 0},
				vertexcentric.Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
	b.Run("graphlab-like", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = vertexcentric.RunGAS(g, vertexcentric.GASSSSP{Source: 0},
				vertexcentric.GASConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
	b.Run("blogel-like", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = blockcentric.Run(g, blockcentric.SSSPBlock{Source: 0},
				blockcentric.Config{Workers: workers, Strategy: spatial, BlocksPerWorker: 8})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
	b.Run("grape", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0},
				engine.Options{Workers: workers, Strategy: spatial})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
}

// BenchmarkPartitionImpact is the Section 3 partition experiment: GRAPE SSSP
// on the social graph under each strategy, 16 workers.
func BenchmarkPartitionImpact(b *testing.B) {
	sc := benchScale()
	g := sc.Social()
	for _, strat := range []partition.Strategy{partition.MetisLike{}, partition.Fennel{}, partition.Hash{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			asg, err := strat.Partition(g, 16)
			if err != nil {
				b.Fatal(err)
			}
			layout := partition.Build(g, asg)
			var st *metrics.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err = engine.RunOnLayout(context.Background(), layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, st)
			b.ReportMetric(float64(st.Messages), "msgs/run")
		})
	}
}

// BenchmarkScaleUp is the Fig. 3(4) analytics: GRAPE SSSP while the worker
// count grows.
func BenchmarkScaleUp(b *testing.B) {
	sc := benchScale()
	g := sc.Road()
	for _, n := range []int{4, 8, 16, 24, 32} {
		b.Run(workersName(n), func(b *testing.B) {
			var st *metrics.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0},
					engine.Options{Workers: n, Strategy: partition.TwoD{Cols: sc.RoadCols}})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, st)
		})
	}
}

// BenchmarkBoundedIncEval is Example 1(d): bounded incremental evaluation
// against full per-superstep recomputation on identical layouts.
func BenchmarkBoundedIncEval(b *testing.B) {
	sc := benchScale()
	g := sc.Road()
	asg, err := partition.TwoD{Cols: sc.RoadCols}.Partition(g, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bounded", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			layout := partition.Build(g, asg)
			var err error
			_, st, err = engine.RunOnLayout(context.Background(), layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
		b.ReportMetric(float64(st.TotalWork()), "work/run")
	})
	b.Run("recompute", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			layout := partition.Build(g, asg)
			var err error
			_, st, err = engine.RunOnLayout(context.Background(), layout, experiments.RecomputeSSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
		b.ReportMetric(float64(st.TotalWork()), "work/run")
	})
}

// BenchmarkGPARMarketing is Fig. 4: GPAR customer discovery, one
// sub-benchmark per worker count.
func BenchmarkGPARMarketing(b *testing.B) {
	sc := benchScale()
	g := sc.Commerce()
	rule := gpar.Example2Rule(0.8)
	for _, n := range []int{1, 4, 16} {
		b.Run(workersName(n), func(b *testing.B) {
			var st *metrics.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = gpar.Eval(context.Background(), g, rule, engine.Options{Workers: n})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, st)
		})
	}
}

// BenchmarkSimulationTheorem compares a Pregel SSSP run natively and under
// the GRAPE adapter — superstep parity is the theorem's operational claim.
func BenchmarkSimulationTheorem(b *testing.B) {
	sc := benchScale()
	g := sc.Social()
	b.Run("pregel-native", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = vertexcentric.Run(g, vertexcentric.SSSPProgram{Source: 0}, vertexcentric.Config{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
	b.Run("pregel-on-grape", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = simulate.Run(context.Background(), g, vertexcentric.SSSPProgram{Source: 0}, engine.Options{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
}

// BenchmarkIndexAblation is the graph-level-optimization experiment:
// keyword search PEval with and without the inverted index.
func BenchmarkIndexAblation(b *testing.B) {
	sc := benchScale()
	g := sc.Social()
	gen.AttachKeywords(g, []string{"db", "graph", "ml", "sys", "net"}, 2, 0.05, sc.Seed)
	q := queries.KeywordQuery{Keywords: []string{"db", "graph", "ml"}, Bound: 4, UseIndex: true}
	b.Run("indexed", func(b *testing.B) {
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = engine.Run(context.Background(), g, queries.Keyword{}, q, engine.Options{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
		b.ReportMetric(float64(st.TotalWork()), "work/run")
	})
	b.Run("scan", func(b *testing.B) {
		qs := q
		qs.UseIndex = false
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = engine.Run(context.Background(), g, queries.Keyword{}, qs, engine.Options{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
		b.ReportMetric(float64(st.TotalWork()), "work/run")
	})
}

// BenchmarkQueryClass runs each of the six registered query classes — the
// Section 3 walk-through as a benchmark.
func BenchmarkQueryClass(b *testing.B) {
	sc := benchScale()
	road := sc.Road()
	commerce := sc.Commerce()
	social := sc.Social()
	gen.AttachKeywords(social, []string{"db", "graph", "ml"}, 2, 0.05, sc.Seed)
	ratings := gen.Ratings(gen.RatingsConfig{Users: sc.Users, Items: sc.Items, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: sc.Seed})
	pattern, err := queries.PatternByName("follows-recommend")
	if err != nil {
		b.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() (*metrics.Stats, error)
	}{
		{"sssp", func() (*metrics.Stats, error) {
			_, st, err := engine.Run(context.Background(), road, queries.SSSP{}, queries.SSSPQuery{Source: 0},
				engine.Options{Workers: 8, Strategy: partition.TwoD{Cols: sc.RoadCols}})
			return st, err
		}},
		{"cc", func() (*metrics.Stats, error) {
			_, st, err := engine.Run(context.Background(), road, queries.CC{}, queries.CCQuery{},
				engine.Options{Workers: 8, Strategy: partition.TwoD{Cols: sc.RoadCols}})
			return st, err
		}},
		{"sim", func() (*metrics.Stats, error) {
			_, st, err := engine.Run(context.Background(), commerce, queries.Sim{}, queries.SimQuery{Pattern: pattern},
				engine.Options{Workers: 8})
			return st, err
		}},
		{"subiso", func() (*metrics.Stats, error) {
			_, st, err := queries.RunSubIso(context.Background(), commerce, queries.SubIsoQuery{Pattern: pattern},
				engine.Options{Workers: 8})
			return st, err
		}},
		{"keyword", func() (*metrics.Stats, error) {
			_, st, err := engine.Run(context.Background(), social, queries.Keyword{},
				queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 4, UseIndex: true},
				engine.Options{Workers: 8})
			return st, err
		}},
		{"cf", func() (*metrics.Stats, error) {
			cfg := seq.DefaultCFConfig()
			cfg.Epochs = 10
			_, st, err := engine.Run(context.Background(), ratings, queries.CF{}, queries.CFQuery{Cfg: cfg},
				engine.Options{Workers: 8})
			return st, err
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var st *metrics.Stats
			for i := 0; i < b.N; i++ {
				var err error
				st, err = tc.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, st)
		})
	}
}

// BenchmarkCoordinatorFold isolates the coordinator hot path: SSSP and CC on
// a prebuilt 8-worker layout, so partitioning is paid once outside the timed
// loop and ns/op + allocs/op track the per-superstep fold + route machinery
// (worker compute is identical across runs of the same layout). This is the
// guardrail benchmark for the sharded-aggregation coordinator.
func BenchmarkCoordinatorFold(b *testing.B) {
	sc := benchScale()
	g := sc.Road()
	asg, err := partition.TwoD{Cols: sc.RoadCols}.Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	layout := partition.Build(g, asg)
	b.Run("sssp", func(b *testing.B) {
		b.ReportAllocs()
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = engine.RunOnLayout(context.Background(), layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
	b.Run("cc", func(b *testing.B) {
		b.ReportAllocs()
		var st *metrics.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = engine.RunOnLayout(context.Background(), layout, queries.CC{}, queries.CCQuery{}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
}

// BenchmarkScalingGap sweeps grid sizes and reports the Giraph/GRAPE
// communication ratio — the perimeter-vs-area effect behind Table 1's
// absolute numbers.
func BenchmarkScalingGap(b *testing.B) {
	for _, side := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("grid-%d", side), func(b *testing.B) {
			var rows []experiments.GapRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.ScalingGap(context.Background(), []int{side}, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Ratio, "comm-ratio")
			b.ReportMetric(float64(rows[0].GiraphSteps), "giraph-steps")
			b.ReportMetric(float64(rows[0].GrapeSteps), "grape-steps")
		})
	}
}

// BenchmarkTriCount exercises the second locality-bounded query class.
func BenchmarkTriCount(b *testing.B) {
	g := benchScale().Social()
	var st *metrics.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = queries.RunTriCount(context.Background(), g, engine.Options{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, st)
}

// BenchmarkTriCountResident is one tricount op of the benchmark's
// resident-bus workload: the social graph cut by hash into 8 fragments
// expanded by one hop, the layout prebuilt, each op a run on it.
func BenchmarkTriCountResident(b *testing.B) {
	g := gen.PreferentialAttachment(10000, 5, 1).Freeze()
	layout, err := engine.BuildLayout(g, engine.Options{Workers: 8, Strategy: partition.Hash{}, ExpandHops: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st *metrics.Stats
	for i := 0; i < b.N; i++ {
		if _, st, err = engine.RunOnLayout(context.Background(), layout, queries.TriCount{}, queries.TriCountQuery{}, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	report(b, st)
}

// BenchmarkContinuousUpdates measures the session layer: cost of a small
// update batch against a standing SSSP query (Example 1(d) over graph
// updates).
func BenchmarkContinuousUpdates(b *testing.B) {
	sc := benchScale()
	g := sc.Road()
	session, _, _, err := engine.NewSession(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0},
		engine.Options{Workers: 16, Strategy: partition.TwoD{Cols: sc.RoadCols}})
	if err != nil {
		b.Fatal(err)
	}
	far := graph.ID(sc.RoadRows*sc.RoadCols - 1)
	b.ResetTimer()
	var st *metrics.Stats
	for i := 0; i < b.N; i++ {
		// weight decreases on the same edge keep the workload stationary
		w := 2.0 / float64(i+1)
		_, st, err = session.Update(context.Background(), []engine.EdgeUpdate{{From: far - 1, To: far, W: w}})
		if err != nil {
			b.Fatal(err)
		}
	}
	if st != nil {
		report(b, st)
	}
}

// BenchmarkPartitioners measures the partition strategies themselves (build
// time and the quality that drives the partition-impact experiment).
func BenchmarkPartitioners(b *testing.B) {
	g := benchScale().Social()
	for _, strat := range partition.Strategies() {
		b.Run(strat.Name(), func(b *testing.B) {
			var asg *partition.Assignment
			for i := 0; i < b.N; i++ {
				var err error
				asg, err = strat.Partition(g, 16)
				if err != nil {
					b.Fatal(err)
				}
			}
			q := partition.Measure(strat.Name(), asg)
			b.ReportMetric(float64(q.EdgeCut), "edgecut")
			b.ReportMetric(q.Balance, "balance")
		})
	}
}

// BenchmarkSequentialBaselines measures the raw sequential algorithms that
// PEval plugs in — the single-worker floor all parallel numbers compare
// against.
func BenchmarkSequentialBaselines(b *testing.B) {
	g := benchScale().Road()
	b.Run("dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := seq.Dijkstra(g, 0); len(d) == 0 {
				b.Fatal("empty result")
			}
		}
	})
	b.Run("components", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c := seq.Components(g); len(c) == 0 {
				b.Fatal("empty result")
			}
		}
	})
}

// BenchmarkPublicAPI exercises the facade the examples use, so API overhead
// stays visible.
func BenchmarkPublicAPI(b *testing.B) {
	g := grape.RoadGrid(48, 48, 1)
	b.Run("run-sssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := grape.RunSSSP(context.Background(), g, 0, grape.Options{Workers: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run-program-by-name", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := grape.RunProgram(context.Background(), "sssp", g, grape.Options{Workers: 8}, "source=0"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func workersName(n int) string { return fmt.Sprintf("workers-%02d", n) }
