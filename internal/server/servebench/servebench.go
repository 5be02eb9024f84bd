// Package servebench is the shared driver of the serving-throughput
// benchmark: N concurrent clients issuing sssp queries against a resident
// road graph over the real HTTP stack. Both BenchmarkServeThroughput
// (internal/server) and grape-bench's -json matrix call it, so the committed
// BENCH_PR*.json rows and the in-repo benchmark measure exactly the same
// workload and cannot drift.
package servebench

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grape/internal/server"
	"grape/internal/server/client"
)

// Sources is how many distinct sssp sources the clients rotate through: in
// cached mode the rotation makes every request after warm-up a cache hit;
// in NoCache mode each request is a full engine run regardless.
const Sources = 4

// ServerConfig is the one server configuration both benchmark entry points
// measure against — defined here so tuning it cannot desynchronize the
// committed BENCH_PR*.json rows from the in-repo benchmark.
func ServerConfig() server.Config {
	return server.Config{Workers: 8, Strategy: "2d", MaxInFlight: 8,
		MaxQueue: 4096, QueryTimeout: 5 * time.Minute}
}

// Warm primes the server at url: the layout is built and, in cached mode,
// all rotated answers enter the result cache. Returns the superstep count
// of the last run for reporting.
func Warm(ctx context.Context, url string, cached bool) (lastSteps int, err error) {
	c := client.New(url, nil)
	for src := 0; src < Sources; src++ {
		res, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp",
			Query: fmt.Sprintf("source=%d", src), NoCache: !cached})
		if err != nil {
			return 0, err
		}
		lastSteps = res.Stats.Supersteps
	}
	return lastSteps, nil
}

// Drive issues b.N queries split across nClients goroutines, each with its
// own HTTP client (so connections are not the bottleneck), and reports the
// aggregate qps metric. Callers Warm first.
func Drive(ctx context.Context, b *testing.B, url string, nClients int, cached bool) {
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for w := 0; w < nClients; w++ {
		n := b.N / nClients
		if w < b.N%nClients {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			// own Transport, not just own Client: Clients with a nil
			// Transport share http.DefaultTransport, whose 2-per-host idle
			// cap would make 64 serial loops measure TCP churn instead of
			// serving throughput
			c := client.New(url, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}})
			for i := 0; i < n; i++ {
				req := server.QueryRequest{Graph: "road", Program: "sssp",
					Query: fmt.Sprintf("source=%d", (w+i)%Sources), NoCache: !cached}
				if _, err := c.Query(ctx, req); err != nil {
					errs <- err
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
}

// OverloadClients is the client count of the overload scenario: far more
// concurrent clients than run slots, so queries queue and doomed deadlines
// expire mid-run — the shape the cancellation redesign exists for.
const OverloadClients = 64

// MeasureRunLatency times uncached runs (call Warm first so the layout
// exists) and returns the median — the baseline the overload scenario's
// 50% deadline is computed from.
func MeasureRunLatency(ctx context.Context, url string) (time.Duration, error) {
	c := client.New(url, nil)
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp",
			Query: fmt.Sprintf("source=%d", i%Sources), NoCache: true})
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// RunOverload is the overload scenario proper: nClients concurrent client
// goroutines issue perClient uncached queries each; every other client
// attaches the given per-request deadline (callers size it to a solo run's
// latency: trivially met idle, hopeless under overload, so those runs are
// cancelled moments after they start), the rest run unbounded. It returns
// goodput — successful queries per second — and the fraction of requests
// that succeeded. A fixed request count (not a b.N ramp) keeps the
// measurement out of the small-sample regime where one slow request dominates.
func RunOverload(ctx context.Context, url string, nClients, perClient int, deadline time.Duration) (goodqps, goodfrac float64) {
	var good atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(url, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}})
			doomed := w%2 == 0 // the 50%-deadline half
			for i := 0; i < perClient; i++ {
				rctx := ctx
				cancel := context.CancelFunc(func() {})
				if doomed {
					rctx, cancel = context.WithTimeout(ctx, deadline)
				}
				req := server.QueryRequest{Graph: "road", Program: "sssp",
					Query: fmt.Sprintf("source=%d", (w+i)%Sources), NoCache: true}
				if _, err := c.Query(rctx, req); err == nil {
					good.Add(1)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := nClients * perClient
	return float64(good.Load()) / elapsed.Seconds(), float64(good.Load()) / float64(total)
}
