package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
)

// smokeScale runs every workload end to end in a second or two: tiny
// graphs, a handful of ops.
var smokeScale = scale{
	roadSide: 12, socialN: 400, people: 150, products: 6, users: 120, items: 30,
	coldTriples: 2, residentRounds: 1, hotOps: 6, churnRounds: 2, directHits: 3,
}

// TestSmoke runs all five workloads — one untraced and one traced pass each
// — and requires that no op fails, that every declared metric is reported,
// and that the ledger invariant holds where it is promised.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	d := generate(7, smokeScale)
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			w, err := plan(ctx, def.Name, d, smokeScale, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var passes []*passResult
			for _, traced := range []bool{false, true} {
				p, err := w.pass(ctx, traced, true)
				if err != nil {
					t.Fatal(err)
				}
				passes = append(passes, p)
			}
			sum, err := summarize(def.Name, passes)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Failed != 0 || sum.Attempted == 0 {
				t.Fatalf("%d of %d ops failed", sum.Failed, sum.Attempted)
			}
			for _, m := range endToEndDefs {
				if v, ok := sum.EndToEnd[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			for _, m := range perLayerDefs {
				if v, ok := sum.PerLayer[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v, want a value in %s", m.Name, v, m.Unit)
				}
			}
			if def.Name == "oneshot-cold" || def.Name == "resident-bus" {
				if c := sum.PerLayer["ledger.coverage_ratio"].Value; c < 0.9 {
					t.Errorf("ledger.coverage_ratio = %.3f, want >= 0.9", c)
				}
			}
			if def.Name == "resident-bus" || def.Name == "resident-wire" {
				for _, c := range classes {
					if v := sum.PerLayer["queries."+c+".seq_ratio"].Value; v <= 0 {
						t.Errorf("queries.%s.seq_ratio = %g, want > 0", c, v)
					}
				}
			}
		})
	}
}

// TestCorruptedAnswerIsFailed makes the system return one wrong sssp answer
// in the middle of a script and requires the harness to count exactly that
// op as failed and keep it out of the latencies.
func TestCorruptedAnswerIsFailed(t *testing.T) {
	ctx := context.Background()
	w, err := planEngine(ctx, "oneshot-cold", modeCold, generate(7, smokeScale), smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	c := w.cases[0]
	run, calls := c.entry.Run, 0
	c.entry.Run = func(ctx context.Context, g *graph.Graph, opts engine.Options, query string) (any, *metrics.Stats, error) {
		res, st, err := run(ctx, g, opts, query)
		if calls++; calls == 2 { // call 1 is the warm-up
			res.(map[graph.ID]float64)[c.g.Vertices()[3]] += 0.5
		}
		return res, st, err
	}
	p, err := w.pass(ctx, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if failed := len(p.ops) - p.correct(); failed != 1 {
		t.Fatalf("%d ops counted as failed, want exactly the corrupted one", failed)
	}
	if got := len(p.latencies(-1)); got != len(p.ops)-1 {
		t.Fatalf("%d latencies for %d ops with one failed", got, len(p.ops))
	}
	sum, err := summarize("oneshot-cold", []*passResult{p})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary reports %d failed, want 1", sum.Failed)
	}
}

// TestServedAnswerChecks feeds checkAnswer tampered replies.
func TestServedAnswerChecks(t *testing.T) {
	want := digest(map[graph.ID]float64{0: 0, 1: 2.5})
	body := func(epoch int, cached bool, result string) reply {
		b, _ := json.Marshal(map[string]any{"epoch": epoch, "cached": cached, "result": json.RawMessage(result)})
		return reply{status: 200, body: b}
	}
	if _, err := checkAnswer(body(3, true, `{"0":0,"1":2.5}`), "sssp", 3, true, want); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for name, r := range map[string]reply{
		"wrong value":   body(3, true, `{"0":0,"1":2.25}`),
		"missing entry": body(3, true, `{"0":0}`),
		"stale epoch":   body(2, true, `{"0":0,"1":2.5}`),
		"not a hit":     body(3, false, `{"0":0,"1":2.5}`),
		"refused":       {status: 429, body: []byte(`{"error":"overloaded"}`)},
	} {
		if _, err := checkAnswer(r, "sssp", 3, true, want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %g, want 2", got)
	}
	// Inclusive quartiles: one outlying pass in five moves the spread as
	// little as it moves the median.
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{20, 10, 12, 11, 13}, 2.0 / 12}, // quartiles 11, 13 over median 12
		{[]float64{9, 10, 12}, 0.15},              // quartiles 9.5, 11
		{xs, 4.5 / 5.5},                           // quartiles 3.25, 7.75 over median 5.5
		{[]float64{2, 1}, 0.5 / 1.5},              // quartiles 1.25, 1.75
		{[]float64{7}, 0}, {nil, 0}, {[]float64{0, 0}, 0},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty inputs must give 0")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "op", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(40), parent: 0},
		{name: "b", start: at(40), end: at(90), parent: 0},
		{name: "c", start: at(50), end: at(70), parent: 2},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"op": 20, "a": 30, "b": 30, "c": 20} {
		if self[name] != want*time.Millisecond {
			t.Errorf("self time of %s = %v, want %vms", name, self[name], want)
		}
	}
}

func TestCompareClassifier(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.10)}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.10)}
	for _, tc := range []struct {
		d        metricDef
		old, new metricReport
		want     verdict
	}{
		{lower, metricReport{Value: 10, Spread: 0.02}, metricReport{Value: 10.9, Spread: 0.02}, same},
		{lower, metricReport{Value: 10, Spread: 0.02}, metricReport{Value: 11.5, Spread: 0.02}, worse},
		{lower, metricReport{Value: 10, Spread: 0.02}, metricReport{Value: 8, Spread: 0.02}, better},
		{lower, metricReport{Value: 10, Spread: 0.02}, metricReport{Value: 11.5, Spread: 0.30}, unresolved},
		{higher, metricReport{Value: 100, Spread: 0.01}, metricReport{Value: 85, Spread: 0.01}, worse},
		{higher, metricReport{Value: 100, Spread: 0.01}, metricReport{Value: 120, Spread: 0.01}, better},
		{higher, metricReport{Value: 100, Spread: 0.01}, metricReport{Value: 95, Spread: 0.01}, same},
	} {
		if got := classify(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("classify(%s, %g -> %g) = %s, want %s", tc.d.Name, tc.old.Value, tc.new.Value, got, tc.want)
		}
	}
}

// TestCompareFiles writes two result files and checks the exit verdict: the
// same numbers pass, a changed exact counter or a regression does not.
func TestCompareFiles(t *testing.T) {
	mk := func(p50, commKB float64) string {
		f := resultFile{Workloads: map[string]*summary{}}
		for _, wd := range workloadDefs {
			s := &summary{Workload: wd.Name, EndToEnd: map[string]metricReport{}, Exact: map[string]float64{"engine.comm_kb_per_op": commKB}}
			for _, d := range endToEndDefs {
				s.EndToEnd[d.Name] = metricReport{Value: 10, Unit: d.Unit, Spread: 0.01}
			}
			s.EndToEnd["op_p50_ms"] = metricReport{Value: p50, Unit: "ms", Spread: 0.01}
			f.Workloads[wd.Name] = s
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, mk(10, 48.4), mk(10.5, 48.4)); err != nil {
		t.Fatalf("equal runs compared as different: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), string(worse)) || strings.Contains(out.String(), string(unresolved)) {
		t.Fatalf("equal runs must compare as same everywhere:\n%s", out.String())
	}
	if err := compareFiles(&out, mk(10, 48.4), mk(14, 48.4)); err == nil {
		t.Fatal("a 40% p50 regression passed -compare")
	}
	if err := compareFiles(&out, mk(10, 48.4), mk(10, 48.5)); err == nil {
		t.Fatal("a changed exact counter passed -compare")
	}
}

func TestDeterminismGuard(t *testing.T) {
	a := &passResult{commBytes: 100, supersteps: 9, msgs: 40, ops: make([]opRec, 3)}
	b := &passResult{commBytes: 100, supersteps: 9, msgs: 40, ops: make([]opRec, 3)}
	if err := checkDeterminism("resident-bus", []*passResult{a, b}); err != nil {
		t.Fatal(err)
	}
	b.commBytes++
	err := checkDeterminism("resident-bus", []*passResult{a, b})
	if err == nil || !strings.Contains(err.Error(), "resident-bus") {
		t.Fatalf("mismatching passes gave %v, want an error naming the workload", err)
	}
	if _, err := summarize("resident-bus", []*passResult{a, b}); err == nil {
		t.Fatal("summarize emitted a median over mismatching passes")
	}
}

// TestManifest is `benchmark -check` as a unit test, plus the contract
// limits on hand-broken manifests.
func TestManifest(t *testing.T) {
	if err := checkManifest("../BENCHMARK.json", "README.md"); err != nil {
		t.Fatal(err)
	}
	if err := validateContract(wantManifest()); err != nil {
		t.Fatal(err)
	}
	breakIt := map[string]func(*manifest){
		"bad name":        func(m *manifest) { m.PerLayer[0].Name = "has space" },
		"duplicate name":  func(m *manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"no setup_s":      func(m *manifest) { m.EndToEnd = m.EndToEnd[1:] },
		"bound too large": func(m *manifest) { m.EndToEnd[0].Bound = bound(0.3) },
		"one workload":    func(m *manifest) { m.Workloads = m.Workloads[:1] },
		"long why":        func(m *manifest) { m.Workloads[0].Why = strings.Repeat("x", 201) },
		"absolute path":   func(m *manifest) { m.Paths = []string{"/benchmark"} },
		"escaping path":   func(m *manifest) { m.Command = []string{"bash", "../run.sh"} },
		"bad unit":        func(m *manifest) { m.PerLayer[0].Unit = "milli seconds" },
		"layer bound":     func(m *manifest) { m.PerLayer[0].Bound = bound(0.1) },
	}
	for name, f := range breakIt {
		var m manifest
		data, _ := json.Marshal(wantManifest())
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		f(&m)
		if err := validateContract(m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
