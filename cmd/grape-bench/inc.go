package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/experiments"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/server"
	"grape/internal/server/client"
	"grape/internal/server/servebench"
)

// incRows measures incremental sessions against from-scratch recomputation
// for every registered query class: the same random insert/delete stream is
// replayed once through a retained IncEval session (`inc/<class>`, ns_op is
// wall time per batch) and once as mutate-then-fresh-Run (`full/<class>`).
// Streams are sized so deletions exercise each class's repair path — sim
// runs delete-only (its exact repair is gated on all-delete batches) and
// keyword insert-only (deletions reseed, which is the full row by
// definition); cf reseeds on every batch, so its pair documents the honest
// "incremental is no cheaper than full" floor rather than a win.
func incRows(ctx context.Context, sc experiments.Scale) ([]benchRow, error) {
	social := func() *graph.Graph {
		g := gen.PreferentialAttachment(sc.SocialN, sc.SocialDeg, sc.Seed)
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, sc.Seed)
		return g
	}
	ratings := func() *graph.Graph {
		return gen.DirectedRatings(gen.RatingsConfig{Users: sc.Users, Items: sc.Items, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: sc.Seed})
	}
	mixed := func(batches, size int, deleteP float64) gen.StreamConfig {
		return gen.StreamConfig{Batches: batches, BatchSize: size, DeleteP: deleteP, Seed: sc.Seed}
	}
	cases := []struct {
		name    string
		program string
		query   string
		build   func() *graph.Graph
		stream  gen.StreamConfig
	}{
		{"sssp", "sssp", "source=0", sc.Road, mixed(8, 16, 0.4)},
		{"cc", "cc", "", social, mixed(8, 16, 0.5)},
		{"sim", "sim", "pattern=follows-recommend", sc.Commerce, mixed(8, 16, 1)},
		{"keyword", "keyword", "k=db,graph bound=4", social, mixed(8, 16, 0)},
		{"subiso", "subiso", "pattern=follows-recommend", sc.Commerce, mixed(8, 16, 0.5)},
		{"tricount", "tricount", "", social, mixed(8, 16, 0.5)},
		{"cf", "cf", "epochs=10", ratings, gen.StreamConfig{Batches: 4, BatchSize: 8, DeleteP: 0.3, MaxW: 5, Seed: sc.Seed}},
	}

	opts := engine.Options{Workers: 8}
	var rows []benchRow
	for _, tc := range cases {
		g := tc.build()
		shadow := g.Clone()
		stream := gen.UpdateStream(g, tc.stream)
		e, err := engine.Lookup(tc.program)
		if err != nil {
			return nil, fmt.Errorf("inc/%s: %w", tc.name, err)
		}
		pq, err := e.Parse(tc.query)
		if err != nil {
			return nil, fmt.Errorf("inc/%s: %w", tc.name, err)
		}
		sess, _, _, err := e.Session(ctx, g, opts, pq)
		if err != nil {
			return nil, fmt.Errorf("inc/%s: session: %w", tc.name, err)
		}
		var incStats *metrics.Stats
		start := time.Now()
		for _, batch := range stream {
			ups := make([]engine.EdgeUpdate, len(batch))
			for i, u := range batch {
				ups[i] = engine.EdgeUpdate{From: u.From, To: u.To, W: u.W, Label: u.Label, Del: u.Del}
			}
			_, st, err := sess.Update(ctx, ups)
			if err != nil {
				return nil, fmt.Errorf("inc/%s: update: %w", tc.name, err)
			}
			incStats = st
		}
		incNs := time.Since(start).Nanoseconds() / int64(len(stream))

		var fullStats *metrics.Stats
		start = time.Now()
		for _, batch := range stream {
			for _, u := range batch {
				if u.Del {
					if _, ok := shadow.RemoveEdge(u.From, u.To, u.Label); !ok {
						return nil, fmt.Errorf("full/%s: stream deleted a dead edge %d->%d", tc.name, u.From, u.To)
					}
				} else {
					shadow.AddLabeledEdge(u.From, u.To, u.W, u.Label)
				}
			}
			_, st, err := e.Run(ctx, shadow, opts, tc.query)
			if err != nil {
				return nil, fmt.Errorf("full/%s: %w", tc.name, err)
			}
			fullStats = st
		}
		fullNs := time.Since(start).Nanoseconds() / int64(len(stream))

		rows = append(rows,
			statRow("inc/"+tc.name, incNs, incStats),
			statRow("full/"+tc.name, fullNs, fullStats))
		fmt.Fprintf(os.Stderr, "grape-bench: %-14s %12d ns/batch   vs full %12d ns/batch (%.1fx)\n",
			"inc/"+tc.name, incNs, fullNs, float64(fullNs)/float64(incNs))
	}
	return rows, nil
}

// statRow fills a benchRow from the last run's BSP stats; coordinator-side
// patch paths (tricount, subiso) report no engine stats, so those stay zero.
func statRow(name string, ns int64, st *metrics.Stats) benchRow {
	r := benchRow{Name: name, NsPerOp: ns}
	if st != nil {
		r.CommKB = float64(st.Bytes) / 1e3
		r.Steps = st.Supersteps
	}
	return r
}

// mixedRows measures the served 90/10 read/write mix over the real HTTP
// stack: one resident road graph, one client issuing 9 queries then 1
// mutation (alternating insert and delete of the same edge, so the graph
// never drifts from its baseline). Each mutation flows through the named
// program's retained session and primes the refreshed answer under the new
// epoch, so the 9 reads that follow are cache hits — ns_op is wall time per
// request across the whole mix.
func mixedRows(ctx context.Context, road *graph.Graph) ([]benchRow, error) {
	var rows []benchRow
	for _, tc := range []struct {
		name    string
		program string
		query   string
	}{
		{"mixed/90-10/cc", "cc", ""},
		{"mixed/90-10/sssp", "sssp", "source=0"},
	} {
		s := server.New(servebench.ServerConfig())
		if err := s.AddGraph("road", road.Clone()); err != nil {
			return nil, err
		}
		ts := httptest.NewServer(s.Handler())
		c := client.New(ts.URL, nil)
		qreq := server.QueryRequest{Graph: "road", Program: tc.program, Query: tc.query}
		if _, err := c.Query(ctx, qreq); err != nil {
			ts.Close()
			return nil, fmt.Errorf("%s: warm: %w", tc.name, err)
		}
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			muts := 0
			for n := 0; n < b.N; n++ {
				if n%10 == 9 {
					edge := []server.EdgeJSON{{From: 0, To: 37, W: 0.01, Label: "bench", Del: muts%2 == 1}}
					if _, err := c.MutateProgram(ctx, "road", tc.program, tc.query, edge); err != nil {
						benchErr = fmt.Errorf("%s: mutate: %w", tc.name, err)
						b.Fatal(benchErr)
					}
					muts++
					continue
				}
				if _, err := c.Query(ctx, qreq); err != nil {
					benchErr = fmt.Errorf("%s: query: %w", tc.name, err)
					b.Fatal(benchErr)
				}
			}
			// Leave the graph as found: an odd mutation count leaves the
			// bench edge inserted, which the next row's fresh clone ignores
			// but a trailing delete keeps tidy anyway.
			if muts%2 == 1 {
				edge := []server.EdgeJSON{{From: 0, To: 37, Label: "bench", Del: true}}
				if _, err := c.MutateProgram(ctx, "road", tc.program, tc.query, edge); err != nil {
					benchErr = fmt.Errorf("%s: cleanup: %w", tc.name, err)
					b.Fatal(benchErr)
				}
			}
		})
		ts.Close()
		if benchErr != nil {
			return nil, benchErr
		}
		rows = append(rows, benchRow{Name: tc.name, NsPerOp: r.NsPerOp()})
		fmt.Fprintf(os.Stderr, "grape-bench: %-18s %12d ns/op %12.1f req/s\n",
			tc.name, r.NsPerOp(), 1e9/float64(r.NsPerOp()))
	}
	return rows, nil
}
