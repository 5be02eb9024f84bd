package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grape"
	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/queries"
	"grape/internal/server"
	"grape/internal/server/client"
)

// TestServeSmoke is the serve-smoke CI job: build and start the real
// grape-serve binary, issue one query per registered program through the
// HTTP client, and hold every answer to its class's ground truth (Entry.Check;
// CF, whose distributed parameter averaging has no sequential twin, is held
// far tighter to a solo engine run on the same cut). It skips
// under -short because it builds a binary and spawns a process.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns a process")
	}
	bin := filepath.Join(t.TempDir(), "grape-serve")
	build := exec.Command("go", "build", "-o", bin, "grape/cmd/grape-serve")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building grape-serve: %v\n%s", err, out)
	}

	const seed = 1
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "8", "-strategy", "fennel",
		"-preload", "road,social,commerce,ratings",
		"-rows", "24", "-cols", "24", "-n", "1500", "-deg", "4",
		"-people", "400", "-products", "8", "-users", "80", "-items", "30",
		"-seed", fmt.Sprint(seed), "-keywords", "db,graph,ml")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	// the binary prints "grape-serve: listening on http://ADDR" once ready
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(sc.Text()[i+len("listening on "):])
				return
			}
		}
	}()
	var base string
	select {
	case base = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("grape-serve did not report a listen address")
	}
	c := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Readiness wait: poll GET /healthz until the process answers and all 4
	// preloaded graphs are resident — the same probe an orchestrator would
	// use, so the liveness endpoint itself is under test here.
	for deadline := time.Now().Add(30 * time.Second); ; {
		h, err := c.Healthz(ctx)
		if err == nil && h.OK && h.Graphs == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grape-serve not healthy in time: healthz=%+v err=%v", h, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// the same datasets the server preloaded (identical facade calls, same
	// seed), for ground truth
	road := grape.RoadGrid(24, 24, seed)
	social := grape.SocialNetwork(1500, 4, seed)
	grape.AttachKeywords(social, []string{"db", "graph", "ml"}, 2, 0.05, seed)
	commerce := grape.SocialCommerce(400, 8, seed)
	ratings := grape.Ratings(80, 30, 12, seed)

	query := func(t *testing.T, graphName, program, q string) *client.QueryResult {
		t.Helper()
		res, err := c.Query(ctx, server.QueryRequest{Graph: graphName, Program: program, Query: q})
		if err != nil {
			t.Fatalf("%s %q: %v", program, q, err)
		}
		return res
	}

	// Every class but cf against its declared ground truth (Entry.Check),
	// each answer decoded as a client would decode it.
	for _, c := range []struct {
		program, graph, query string
		g                     *graph.Graph
		decode                func(*client.QueryResult) (any, error)
	}{
		{"sssp", "road", "source=0", road, func(r *client.QueryResult) (any, error) { return r.Distances() }},
		{"cc", "social", "", social, func(r *client.QueryResult) (any, error) { return r.Components() }},
		{"sim", "commerce", "pattern=follows-recommend", commerce, decoded[queries.SimResult]},
		{"subiso", "commerce", "pattern=follows-recommend", commerce, func(r *client.QueryResult) (any, error) { return r.Matches() }},
		{"keyword", "social", "k=db,graph bound=4", social, func(r *client.QueryResult) (any, error) { return r.KeywordMatches() }},
		{"tricount", "social", "", social, decoded[queries.TriCountResult]},
	} {
		t.Run(c.program, func(t *testing.T) {
			got, err := c.decode(query(t, c.graph, c.program, c.query))
			if err != nil {
				t.Fatal(err)
			}
			server.CheckAnswer(t, c.g, c.program, c.query, got)
		})
	}
	// cf's Agree holds the RMSE within 10 % of seq's; the served answer is
	// held to a solo engine run on the same cut far tighter, at 1e-9.
	t.Run("cf", func(t *testing.T) {
		var got queries.CFResult
		if err := json.Unmarshal(query(t, "ratings", "cf", "epochs=5").Result, &got); err != nil {
			t.Fatal(err)
		}
		e, err := engine.Lookup("cf")
		if err != nil {
			t.Fatal(err)
		}
		strat, err := grape.StrategyByName("fennel")
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.Run(context.Background(), ratings, engine.Options{Workers: 8, Strategy: strat}, "epochs=5")
		if err != nil {
			t.Fatal(err)
		}
		want := res.(queries.CFResult)
		if math.Abs(got.RMSE-want.RMSE) > 1e-9 || len(got.Factors) != len(want.Factors) {
			t.Fatalf("cf: RMSE %g over %d factors, want %g over %d", got.RMSE, len(got.Factors), want.RMSE, len(want.Factors))
		}
	})

	// Observability over the real binary: scrape GET /metrics and validate
	// the Prometheus exposition (ParseExposition is the in-repo promtool
	// stand-in), then fetch one run's flight trace.
	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Content-Type"); got != metrics.PromContentType {
			t.Fatalf("/metrics Content-Type = %q, want %q", got, metrics.PromContentType)
		}
		samples, err := metrics.ParseExposition(body)
		if err != nil {
			t.Fatalf("/metrics does not parse: %v\n%s", err, body)
		}
		// The seven t.Run queries above all ran the engine at least once.
		if samples["grape_queries_total"] < 7 {
			t.Fatalf("grape_queries_total = %g after 7 served classes", samples["grape_queries_total"])
		}
		for _, class := range []string{"sssp", "cc", "sim", "subiso", "keyword", "cf", "tricount"} {
			if samples[`grape_runs_total{class="`+class+`"}`] < 1 {
				t.Fatalf("no grape_runs_total sample for class %q\n%s", class, body)
			}
		}
	})
	t.Run("trace", func(t *testing.T) {
		res := query(t, "road", "sssp", "source=1")
		if res.TraceID == "" {
			t.Fatal("served run reports no trace_id")
		}
		resp, err := http.Get(base + "/debug/runs/" + res.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/runs/%s = %d\n%s", res.TraceID, resp.StatusCode, body)
		}
		var tf struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &tf); err != nil {
			t.Fatalf("trace is not Chrome JSON: %v", err)
		}
		steps := 0
		for _, ev := range tf.TraceEvents {
			if ev.Ph == "X" && strings.HasPrefix(ev.Name, "superstep ") {
				steps++
			}
		}
		if steps != res.Stats.Supersteps {
			t.Fatalf("trace has %d superstep spans, stats say %d", steps, res.Stats.Supersteps)
		}
	})
}

// decoded unmarshals a served answer into the result type T.
func decoded[T any](r *client.QueryResult) (any, error) {
	var v T
	err := json.Unmarshal(r.Result, &v)
	return v, err
}
