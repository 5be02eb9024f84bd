package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"grape/internal/gen"
	"grape/internal/metrics"
	"grape/internal/server"
)

// The observability surface: /stats JSON shape, /metrics Prometheus
// exposition, the /debug/runs flight-recorder endpoints, and the structured
// request log. These pin the contract a dashboard or scraper depends on.

func observeServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "hash"
	}
	s := server.New(cfg)
	if err := s.AddGraph("road", gen.RoadGrid(12, 12, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestStatsEndpointShape pins GET /stats: Content-Type application/json and
// the exact top-level field set. Adding a field here is fine — extend the
// list — but renaming or dropping one breaks deployed dashboards.
func TestStatsEndpointShape(t *testing.T) {
	s, ts := observeServer(t, server.Config{})
	if _, err := s.Query(context.Background(), server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"}); err != nil {
		t.Fatal(err)
	}

	resp, body := getBody(t, ts.URL+"/stats")
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("/stats Content-Type = %q, want application/json", got)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/stats is not JSON: %v\n%s", err, body)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	// The omitempty fields (histogram, runs_by_class, worker_imbalance) are
	// present because the query above ran the engine.
	want := []string{
		"cache_encoded_bytes", "cache_hit_rate", "cache_hits", "cache_misses",
		"errors", "histogram", "in_flight", "latency_max_ms", "latency_mean_ms",
		"latency_p50_ms", "latency_p90_ms", "latency_p99_ms", "queries",
		"queue_depth", "recoveries", "rejected", "response_bytes_total",
		"runs_by_class", "timeouts", "worker_imbalance",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("/stats field set changed:\n got %v\nwant %v", got, want)
	}
	// response_bytes_total splits by cache outcome; nothing went over HTTP
	// yet, so nothing was encoded or written.
	bytesBy, _ := m["response_bytes_total"].(map[string]any)
	if len(bytesBy) != 2 || bytesBy["hit"] != 0.0 || bytesBy["miss"] != 0.0 || m["cache_encoded_bytes"] != 0.0 {
		t.Fatalf("response_bytes_total = %v, cache_encoded_bytes = %v before any HTTP answer; want {hit:0 miss:0} and 0",
			m["response_bytes_total"], m["cache_encoded_bytes"])
	}
}

// TestMetricsEndpoint scrapes GET /metrics and validates the exposition with
// the same parser CI uses in place of promtool.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := observeServer(t, server.Config{})
	var answers [2][]byte // the miss, then the cache hit
	for i := range answers {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"graph":"road","program":"sssp","query":"source=0"}`))
		if err != nil {
			t.Fatal(err)
		}
		answers[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, err %v", i, resp.StatusCode, err)
		}
	}
	var answer struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(answers[1], &answer); err != nil {
		t.Fatal(err)
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if got := resp.Header.Get("Content-Type"); got != metrics.PromContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", got, metrics.PromContentType)
	}
	samples, err := metrics.ParseExposition(body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if samples["grape_queries_total"] != 2 || samples["grape_cache_hits_total"] != 1 {
		t.Fatalf("counters after hit+miss: %v", samples)
	}
	if samples[`grape_runs_total{class="sssp"}`] != 1 {
		t.Fatalf("runs_total{class=sssp} = %g, want 1", samples[`grape_runs_total{class="sssp"}`])
	}
	if samples[`grape_request_duration_seconds_bucket{le="+Inf"}`] != 2 {
		t.Fatalf("histogram +Inf = %g, want 2", samples[`grape_request_duration_seconds_bucket{le="+Inf"}`])
	}
	// The server's count of what it wrote equals what the client read, and
	// the cache holds the one encoding both answers were written from.
	for series, want := range map[string]int{
		`grape_response_bytes_total{kind="miss"}`: len(answers[0]),
		`grape_response_bytes_total{kind="hit"}`:  len(answers[1]),
		"grape_cache_encoded_bytes":               len(answer.Result),
	} {
		if got, ok := samples[series]; !ok || got != float64(want) {
			t.Errorf("%s = %g (present: %v), want %d", series, got, ok, want)
		}
	}
}

// TestDebugRuns exercises the flight recorder end to end over HTTP: a served
// query reports its trace_id, the index lists it, and fetching it yields
// Chrome trace-event JSON whose superstep span count matches the run's
// Stats.Supersteps.
func TestDebugRuns(t *testing.T) {
	s, ts := observeServer(t, server.Config{})
	ctx := context.Background()

	res, err := s.Query(ctx, server.QueryRequest{Graph: "road", Program: "cc", Query: ""})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("engine-run response carries no trace_id")
	}

	// Cache hits carry no trace_id: no run happened.
	res2, err := s.Query(ctx, server.QueryRequest{Graph: "road", Program: "cc", Query: ""})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.TraceID != "" {
		t.Fatalf("cache hit: cached=%v trace_id=%q, want cached with empty trace_id", res2.Cached, res2.TraceID)
	}

	// Index lists the run and records the cache hit as an event.
	_, body := getBody(t, ts.URL+"/debug/runs")
	var idx server.FlightIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("/debug/runs is not JSON: %v\n%s", err, body)
	}
	if len(idx.Runs) != 1 || idx.Runs[0].ID != res.TraceID {
		t.Fatalf("flight index runs = %+v, want one run %s", idx.Runs, res.TraceID)
	}
	if idx.Runs[0].Supersteps != res.Stats.Supersteps {
		t.Fatalf("summary supersteps = %d, stats say %d", idx.Runs[0].Supersteps, res.Stats.Supersteps)
	}
	var sawHit bool
	for _, ev := range idx.Events {
		if ev.Kind == "cache-hit" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Fatalf("no cache-hit event in flight index: %+v", idx.Events)
	}

	// The retained trace is Chrome trace-event JSON with one superstep span
	// per superstep the stats counted.
	resp, body := getBody(t, ts.URL+"/debug/runs/"+res.TraceID)
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

	// Unknown IDs 404.
	resp404, _ := getBody(t, ts.URL+"/debug/runs/run-999")
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run id status = %d, want 404", resp404.StatusCode)
	}
}

// TestServerLogging wires a slog JSON handler through Config.Logger and
// checks served queries and mutations emit structured records carrying the
// run ID.
func TestServerLogging(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, _ := observeServer(t, server.Config{Logger: lg})
	ctx := context.Background()

	res, err := s.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(ctx, "road", "", "", []server.EdgeJSON{{From: 0, To: 7, W: 1}}); err != nil {
		t.Fatal(err)
	}

	var sawServed, sawRun, sawMutation bool
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
		}
		switch rec["msg"] {
		case "query served":
			sawServed = true
			if rec["run"] != res.TraceID {
				t.Fatalf("query-served log run=%v, response trace_id=%s", rec["run"], res.TraceID)
			}
		case "run complete":
			sawRun = true
			if rec["run"] != res.TraceID {
				t.Fatalf("run-complete log run=%v, response trace_id=%s", rec["run"], res.TraceID)
			}
		case "mutation applied":
			sawMutation = true
		}
	}
	if !sawServed || !sawRun || !sawMutation {
		t.Fatalf("log stream missing records: served=%v run=%v mutation=%v\n%s", sawServed, sawRun, sawMutation, buf.String())
	}
}
