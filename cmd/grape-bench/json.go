package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"testing"

	"grape/internal/engine"
	"grape/internal/experiments"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/seq"
	"grape/internal/server"
	"grape/internal/server/servebench"
)

// benchRow is one workload of the machine-readable bench matrix: wall time
// and allocation rate from testing.Benchmark, plus the BSP counters
// (communication, supersteps) of the workload's last run.
type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	CommKB      float64 `json:"comm_kb"`
	Steps       int     `json:"steps"`
}

type benchMatrix struct {
	Scale experiments.Scale `json:"scale"`
	Rows  []benchRow        `json:"rows"`
}

// e2eCase is one end-to-end query class, parameterized over the run context
// and extra engine options: the main matrix runs each with the zero Options,
// the fault rows rerun the identical workloads with recovery and injected
// faults on, and the trace path hands each class a context carrying its own
// flight recorder. Each closure owns its workload's Workers/Strategy and
// overwrites them on the options it is handed.
type e2eCase struct {
	name string
	run  func(context.Context, engine.Options) (*metrics.Stats, error)
}

// e2eClasses builds the seven registered query classes at scale sc, datasets
// included. The generators are seeded, so every caller sees the same graphs.
func e2eClasses(sc experiments.Scale) ([]e2eCase, error) {
	road := sc.Road()
	social := sc.Social()
	commerce := sc.Commerce()
	gen.AttachKeywords(social, []string{"db", "graph", "ml"}, 2, 0.05, sc.Seed)
	ratings := gen.Ratings(gen.RatingsConfig{Users: sc.Users, Items: sc.Items, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: sc.Seed})
	pattern, err := queries.PatternByName("follows-recommend")
	if err != nil {
		return nil, err
	}
	spatial := partition.TwoD{Cols: sc.RoadCols}
	cfg := seq.DefaultCFConfig()
	cfg.Epochs = 10

	return []e2eCase{
		{"sssp", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers, o.Strategy = 8, spatial
			_, st, err := engine.Run(ctx, road, queries.SSSP{}, queries.SSSPQuery{Source: 0}, o)
			return st, err
		}},
		{"cc", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers, o.Strategy = 8, spatial
			_, st, err := engine.Run(ctx, road, queries.CC{}, queries.CCQuery{}, o)
			return st, err
		}},
		{"sim", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers = 8
			_, st, err := engine.Run(ctx, commerce, queries.Sim{}, queries.SimQuery{Pattern: pattern}, o)
			return st, err
		}},
		{"subiso", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers = 8
			_, st, err := queries.RunSubIso(ctx, commerce, queries.SubIsoQuery{Pattern: pattern}, o)
			return st, err
		}},
		{"keyword", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers = 8
			q := queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 4, UseIndex: true}
			_, st, err := engine.Run(ctx, social, queries.Keyword{}, q, o)
			return st, err
		}},
		{"cf", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers = 8
			_, st, err := engine.Run(ctx, ratings, queries.CF{}, queries.CFQuery{Cfg: cfg}, o)
			return st, err
		}},
		{"tricount", func(ctx context.Context, o engine.Options) (*metrics.Stats, error) {
			o.Workers = 8
			_, st, err := queries.RunTriCount(ctx, social, o)
			return st, err
		}},
	}, nil
}

// benchStats runs one workload under testing.Benchmark and distills a row
// from the timing plus the last run's BSP metrics.
func benchStats(name string, run func() (*metrics.Stats, error)) (benchRow, error) {
	var last *metrics.Stats
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := run()
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			last = st
		}
	})
	if runErr != nil {
		return benchRow{}, fmt.Errorf("%s: %w", name, runErr)
	}
	row := benchRow{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		CommKB:      float64(last.Bytes) / 1e3,
		Steps:       last.Supersteps,
	}
	fmt.Fprintf(os.Stderr, "grape-bench: %-20s %12d ns/op %9d allocs/op %9.1f comm-KB %4d steps\n",
		name, r.NsPerOp(), r.AllocsPerOp(), float64(last.Bytes)/1e3, last.Supersteps)
	return row, nil
}

// runJSONBench measures the end-to-end engine matrix — the seven registered
// query classes plus the prebuilt-layout coordinator-fold guardrail — and
// writes it as JSON. The same numbers `go test -bench` reports, but runnable
// without the test harness (CI's bench-smoke job uploads the artifact, and
// BENCH_PR*.json baselines are committed from it).
func runJSONBench(ctx context.Context, sc experiments.Scale, path string) error {
	road := sc.Road()
	spatial := partition.TwoD{Cols: sc.RoadCols}
	asg, err := spatial.Partition(road, 8)
	if err != nil {
		return err
	}
	layout := partition.Build(road, asg)

	classes, err := e2eClasses(sc)
	if err != nil {
		return err
	}
	cases := []struct {
		name string
		run  func() (*metrics.Stats, error)
	}{
		{"fold/sssp", func() (*metrics.Stats, error) {
			_, st, err := engine.RunOnLayout(ctx, layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
			return st, err
		}},
		{"fold/cc", func() (*metrics.Stats, error) {
			_, st, err := engine.RunOnLayout(ctx, layout, queries.CC{}, queries.CCQuery{}, engine.Options{})
			return st, err
		}},
	}
	for _, c := range classes {
		run := c.run
		cases = append(cases, struct {
			name string
			run  func() (*metrics.Stats, error)
		}{"e2e/" + c.name, func() (*metrics.Stats, error) { return run(ctx, engine.Options{}) }})
	}

	matrix := benchMatrix{Scale: sc}
	for _, tc := range cases {
		row, err := benchStats(tc.name, tc.run)
		if err != nil {
			return err
		}
		matrix.Rows = append(matrix.Rows, row)
	}
	serve, err := serveRows(ctx, road)
	if err != nil {
		return err
	}
	matrix.Rows = append(matrix.Rows, serve...)
	overload, err := overloadRows(ctx, road)
	if err != nil {
		return err
	}
	matrix.Rows = append(matrix.Rows, overload...)
	inc, err := incRows(ctx, sc)
	if err != nil {
		return err
	}
	matrix.Rows = append(matrix.Rows, inc...)
	mix, err := mixedRows(ctx, road)
	if err != nil {
		return err
	}
	matrix.Rows = append(matrix.Rows, mix...)
	flt, err := faultRows(ctx, sc)
	if err != nil {
		return err
	}
	matrix.Rows = append(matrix.Rows, flt...)
	dur, err := durableRows(sc)
	if err != nil {
		return err
	}
	matrix.Rows = append(matrix.Rows, dur...)

	data, err := json.MarshalIndent(matrix, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// serveRows measures grape-serve end-to-end throughput over the real HTTP
// stack (the same workload as BenchmarkServeThroughput, via the shared
// internal/server/servebench driver): N concurrent clients issuing sssp
// queries against one resident road graph, result cache on (clients rotate
// a handful of sources, so most requests hit) and off (every request is a
// full engine run). ns_op is wall time per served query across all clients,
// so queries/sec = 1e9 / ns_op.
func serveRows(ctx context.Context, road *graph.Graph) ([]benchRow, error) {
	s := server.New(servebench.ServerConfig())
	if err := s.AddGraph("road", road); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rows []benchRow
	for _, clients := range []int{1, 8, 64} {
		for _, cached := range []bool{true, false} {
			name := fmt.Sprintf("serve/c%d", clients)
			if !cached {
				name += "/nocache"
			}
			lastSteps, err := servebench.Warm(ctx, ts.URL, cached)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				servebench.Drive(ctx, b, ts.URL, clients, cached)
			})
			rows = append(rows, benchRow{Name: name, NsPerOp: r.NsPerOp(), Steps: lastSteps})
			fmt.Fprintf(os.Stderr, "grape-bench: %-16s %12d ns/op %12.1f qps\n",
				name, r.NsPerOp(), 1e9/float64(r.NsPerOp()))
		}
	}
	return rows, nil
}

// overloadRows measures goodput under overload: 64 concurrent clients, 50%
// of whose queries carry a deadline sized to one *solo* run — trivially met
// on an idle server, hopeless under 64-way overload, so each such query is
// abandoned moments after its run starts and the run is cancelled within
// one superstep. All queries are uncached engine runs; the row is the
// median of 3 rounds (single shots on a shared box are too noisy to trust).
// ns_op is nanoseconds per *successful* query, so goodput qps = 1e9/ns_op.
func overloadRows(ctx context.Context, road *graph.Graph) ([]benchRow, error) {
	cfg := servebench.ServerConfig()
	// Admit every client: with no queue (a queue-expired query never starts a
	// run), the contended resource is worker CPU, what cancelled runs return.
	cfg.MaxInFlight = servebench.OverloadClients
	s := server.New(cfg)
	if err := s.AddGraph("road", road); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	name := fmt.Sprintf("overload/c%d/cancel", servebench.OverloadClients)
	if _, err := servebench.Warm(ctx, ts.URL, false); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	deadline, err := servebench.MeasureRunLatency(ctx, ts.URL)
	if err != nil {
		return nil, err
	}
	var qpss []float64
	for round := 0; round < 3; round++ {
		qps, frac := servebench.RunOverload(ctx, ts.URL, servebench.OverloadClients, 8, deadline)
		qpss = append(qpss, qps)
		fmt.Fprintf(os.Stderr, "grape-bench: %s round %d: %.1f good-qps (%.0f%% succeeded)\n", name, round, qps, 100*frac)
	}
	sort.Float64s(qpss)
	goodqps := qpss[len(qpss)/2]
	if goodqps <= 0 {
		return nil, fmt.Errorf("%s: zero goodput — every query failed; fix the workload before committing a baseline", name)
	}
	fmt.Fprintf(os.Stderr, "grape-bench: %-22s %12.1f good-qps (median of 3; 50%% of requests deadline-bounded at %s)\n", name, goodqps, deadline)
	return []benchRow{{Name: name, NsPerOp: int64(1e9 / goodqps)}}, nil
}
