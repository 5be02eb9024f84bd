package queries

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/trace"
)

// The flight-recorder acceptance sweep: every registered query class runs
// once per substrate (in-process bus, socket wire) with a recorder on the
// context, and the recorded trace must agree with the run's Stats — one
// superstep span per counted superstep, per-worker phase timings inside
// every span (shipped back in the reply frames on wire runs), and a Chrome
// export whose worker spans nest inside their superstep spans.

type traceCase struct {
	name    string
	program string
	query   string
	build   func() *graph.Graph
}

func traceCases() []traceCase {
	social := func() *graph.Graph {
		g := gen.PreferentialAttachment(220, 3, 7)
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.3, 7)
		return g
	}
	commerce := func() *graph.Graph {
		return gen.SocialCommerce(gen.SocialCommerceConfig{People: 90, Products: 3, Follows: 3, AdoptP: 0.9, Seed: 3})
	}
	return []traceCase{
		{"sssp", "sssp", "source=0", func() *graph.Graph { return gen.RoadGrid(10, 10, 1) }},
		{"cc", "cc", "", func() *graph.Graph { return gen.Random(120, 220, 5) }},
		{"sim", "sim", "pattern=follows-recommend", commerce},
		{"subiso", "subiso", "pattern=follows-recommend", commerce},
		{"keyword", "keyword", "k=db,graph bound=4", social},
		{"cf", "cf", "epochs=3", func() *graph.Graph {
			return gen.DirectedRatings(gen.RatingsConfig{Users: 30, Items: 12, RatingsPerUser: 6, Factors: 3, Noise: 0.1, Seed: 5})
		}},
		{"tricount", "tricount", "", social},
	}
}

// checkTrace asserts one recorded run agrees with its stats and exports to
// well-formed, well-nested Chrome trace JSON.
func checkTrace(t *testing.T, run *trace.Run, supersteps, workers int, substrate string) {
	t.Helper()
	if run.Substrate != substrate || run.Workers != workers {
		t.Fatalf("run header = %s/%d workers, want %s/%d", run.Substrate, run.Workers, substrate, workers)
	}
	if len(run.Steps) != supersteps {
		t.Fatalf("recorded %d superstep spans, stats counted %d", len(run.Steps), supersteps)
	}
	for i, s := range run.Steps {
		if s.Start.IsZero() || s.Barrier.IsZero() || s.End.IsZero() {
			t.Fatalf("step %d has open timestamps: %+v", i, s)
		}
		if s.Barrier.Before(s.Start) || s.End.Before(s.Barrier) {
			t.Fatalf("step %d phases out of order: start %v barrier %v end %v", i, s.Start, s.Barrier, s.End)
		}
		if len(s.Workers) == 0 || len(s.Workers) != s.Sched {
			t.Fatalf("step %d: %d worker timing rows for %d scheduled workers", i, len(s.Workers), s.Sched)
		}
		for _, wt := range s.Workers {
			if wt.Worker < 0 || wt.Worker >= workers {
				t.Fatalf("step %d: timing row for out-of-range worker %d", i, wt.Worker)
			}
		}
	}
	// The first superstep (PEval) schedules the whole fleet.
	if run.Steps[0].Sched != workers {
		t.Fatalf("PEval scheduled %d of %d workers", run.Steps[0].Sched, workers)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, run); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	type span struct{ ts, end int64 }
	var steps []span
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "superstep ") {
			steps = append(steps, span{ev.Ts, ev.Ts + ev.Dur})
		}
	}
	if len(steps) != supersteps {
		t.Fatalf("chrome export has %d superstep spans, want %d", len(steps), supersteps)
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Tid == 0 {
			continue
		}
		// A worker-thread span (apply/compute) must nest inside some
		// superstep span on the coordinator thread.
		nested := false
		for _, s := range steps {
			if s.ts <= ev.Ts && ev.Ts+ev.Dur <= s.end {
				nested = true
				break
			}
		}
		if !nested {
			t.Fatalf("worker span %q [%d,%d] not nested in any superstep span", ev.Name, ev.Ts, ev.Ts+ev.Dur)
		}
	}
}

// TestStepSaysWhetherTheBarrierWaitWasBusy: a traced 8-fragment bus run
// carries, per superstep, the summed worker time and the core count, and the
// two bound the barrier wait from below — workers cannot have been busy for
// longer than the cores were available. With that, "the barrier took 8× the
// slowest worker" reads as 8 fragments queued on the cores, not as idling.
func TestStepSaysWhetherTheBarrierWaitWasBusy(t *testing.T) {
	// A parked worker's clock keeps running, so nothing may park one: the
	// collector is off, and the graph small enough that no worker meets the
	// scheduler's 10 ms time slice, race detector included.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := gen.PreferentialAttachment(1000, 5, 1)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	rec := trace.NewRecorder("busy")
	defer rec.Release()
	ctx := trace.WithRecorder(context.Background(), rec)
	q := KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 4, UseIndex: true}
	if _, _, err := engine.Run(ctx, g, Keyword{}, q, engine.Options{Workers: 8, Strategy: partition.Hash{}}); err != nil {
		t.Fatal(err)
	}
	run := rec.Snapshot()
	if len(run.Steps) == 0 {
		t.Fatal("no superstep spans recorded")
	}
	for _, s := range run.Steps {
		var sum int64
		for _, wt := range s.Workers {
			sum += wt.ComputeNS + wt.ApplyNS
		}
		if s.WorkerNSSum != sum || s.Procs != runtime.GOMAXPROCS(0) {
			t.Fatalf("step %d: worker_ns_sum %d (rows sum to %d), procs %d (GOMAXPROCS %d)", s.Step, s.WorkerNSSum, sum, s.Procs, runtime.GOMAXPROCS(0))
		}
		wait := s.Barrier.Sub(s.Start).Nanoseconds()
		if floor := s.WorkerNSSum / int64(s.Procs); floor > wait+wait/2+int64(500*time.Microsecond) {
			t.Errorf("step %d: workers were busy %d ns on %d cores, yet the barrier fell after %d ns", s.Step, s.WorkerNSSum, s.Procs, wait)
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, run); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, `"worker_ns_sum":`) || !strings.Contains(out, `"procs":`) {
		t.Error("chrome export's superstep args lack worker_ns_sum / procs")
	}
}

func TestFlightRecorderAllClasses(t *testing.T) {
	const workers = 4
	for _, c := range traceCases() {
		c := c
		t.Run(c.name+"/bus", func(t *testing.T) {
			t.Parallel()
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder("bus-" + c.name)
			defer rec.Release()
			ctx := trace.WithRecorder(context.Background(), rec)
			_, st, err := e.Run(ctx, c.build(), engine.Options{Workers: workers, Strategy: partition.Hash{}}, c.query)
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, rec.Snapshot(), st.Supersteps, workers, "bus")
		})
		t.Run(c.name+"/wire", func(t *testing.T) {
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			tr, finish := startSessionWorkers(t, workers)
			defer finish()
			rec := trace.NewRecorder("wire-" + c.name)
			defer rec.Release()
			ctx := trace.WithRecorder(context.Background(), rec)
			_, st, err := e.Run(ctx, c.build(), engine.Options{Workers: workers, Strategy: partition.Hash{}, Transport: tr}, c.query)
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, rec.Snapshot(), st.Supersteps, workers, "wire")
		})
	}
}

// TestFlightRecorderCheckpointEvents pins that a Recover run records one
// checkpoint event per superstep barrier.
func TestFlightRecorderCheckpointEvents(t *testing.T) {
	rec := trace.NewRecorder("ckpt")
	defer rec.Release()
	ctx := trace.WithRecorder(context.Background(), rec)
	g := gen.RoadGrid(10, 10, 1)
	_, st, err := engine.Run(ctx, g, SSSP{}, SSSPQuery{Source: 0}, engine.Options{Workers: 4, Strategy: partition.Hash{}, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	run := rec.Snapshot()
	ckpts := 0
	for _, ev := range run.Events {
		if ev.Kind == "checkpoint" {
			ckpts++
		}
	}
	if ckpts != st.Supersteps {
		t.Fatalf("%d checkpoint events over %d supersteps", ckpts, st.Supersteps)
	}
}

// TestFlightRecorderSessionEvents pins that sessions run under the same
// recorder hooks as every other run — they go through the one superstep
// driver: with a recorder on the context, the open and the update each record
// one span per counted superstep with a timing row for every scheduled worker
// (a resumed fixpoint schedules only the dirtied workers in its superstep 1),
// on substrate "bus", plus the session-update event.
func TestFlightRecorderSessionEvents(t *testing.T) {
	const workers = 2
	rec := trace.NewRecorder("sess")
	defer rec.Release()
	ctx := trace.WithRecorder(context.Background(), rec)
	e, err := engine.Lookup("sssp")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Parse("source=0")
	if err != nil {
		t.Fatal(err)
	}
	g := gen.RoadGrid(8, 8, 1)
	sess, _, openStats, err := e.Session(ctx, g, engine.Options{Workers: workers, Strategy: partition.Hash{}}, pq)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, rec.Snapshot(), openStats.Supersteps, workers, "bus")
	_, updStats, err := sess.Update(ctx, []engine.EdgeUpdate{{From: 0, To: 63, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	run := rec.Snapshot()
	if run.Substrate != "bus" || run.Workers != workers {
		t.Fatalf("run header = %s/%d workers, want bus/%d", run.Substrate, run.Workers, workers)
	}
	if want := openStats.Supersteps + updStats.Supersteps; len(run.Steps) != want {
		t.Fatalf("recorded %d superstep spans, open + update counted %d", len(run.Steps), want)
	}
	for i, s := range run.Steps[openStats.Supersteps:] {
		if s.Step != i+1 || s.Sched == 0 || s.Sched > workers || len(s.Workers) != s.Sched {
			t.Fatalf("update span %d: step %d, %d timing rows for %d scheduled workers", i, s.Step, len(s.Workers), s.Sched)
		}
		if s.Barrier.Before(s.Start) || s.End.Before(s.Barrier) {
			t.Fatalf("update span %d phases out of order: %+v", i, s)
		}
	}
	var saw bool
	for _, ev := range run.Events {
		if ev.Kind == "session-update" && strings.Contains(ev.Detail, "1 edge updates") {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("no session-update event recorded: %+v", run.Events)
	}
}
