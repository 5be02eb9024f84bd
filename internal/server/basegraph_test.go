package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
)

// The served base graph is never written in place: a session splices each
// accepted batch into a new graph, and the server serves that graph from
// then on. The graph before the batch is left as it was, so a clone of it
// stays valid.

// edgesOf converts a generated batch to the /update wire form.
func edgesOf(batch []gen.Update) []EdgeJSON {
	out := make([]EdgeJSON, len(batch))
	for i, u := range batch {
		out[i] = EdgeJSON{From: int64(u.From), To: int64(u.To), W: u.W, Label: u.Label, Del: u.Del}
	}
	return out
}

// applyTo replays a batch on a shadow graph with the one-operation mutators.
func applyTo(t testing.TB, shadow *graph.Graph, edges []EdgeJSON) {
	t.Helper()
	for _, e := range edges {
		if !e.Del {
			shadow.AddLabeledEdge(graph.ID(e.From), graph.ID(e.To), e.W, e.Label)
		} else if _, ok := shadow.RemoveEdge(graph.ID(e.From), graph.ID(e.To), e.Label); !ok {
			t.Fatalf("shadow has no edge %+v", e)
		}
	}
}

// answerErr is program's Entry.Check of got, an answer to query on g: the
// class's declared ground truth.
func answerErr(g *graph.Graph, program, query string, got any) error {
	e, err := engine.Lookup(program)
	if err != nil {
		return err
	}
	pq, err := e.Parse(query)
	if err != nil {
		return err
	}
	return e.Check(g, pq, got)
}

// CheckAnswer fails t unless answerErr accepts got. It is exported for the
// smoke tests of the external test package.
func CheckAnswer(t testing.TB, g *graph.Graph, program, query string, got any) {
	t.Helper()
	if err := answerErr(g, program, query, got); err != nil {
		t.Fatalf("%s %q differs from internal/seq: %v", program, query, err)
	}
}

// TestServerBaseGraphStaysFrozen runs /update batches through sssp, cc,
// subiso and tricount sessions, and one rejected batch. After every batch the
// base graph equals a shadow graph updated in lockstep, a clone taken before
// the batch encodes to the same bytes as before it (the graph before a batch
// stays frozen: it is never written in place), and the session's primed
// answer passes its class's Entry.Check on the shadow.
func TestServerBaseGraphStaysFrozen(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, Strategy: "hash"})
	h := s.Handler()
	cases := []struct{ graph, program, query string }{
		{"road", "sssp", "source=0"},
		{"social", "cc", ""},
		{"commerce", "subiso", "pattern=follows-recommend"},
		{"social", "tricount", ""},
	}
	// update posts one batch and checks that the clone of the graph before
	// the batch is byte for byte unchanged.
	update := func(t *testing.T, graphName, program, query string, edges []EdgeJSON) int {
		t.Helper()
		g, _ := servedState(t, s, graphName)
		before := g.Clone()
		flat := graph.AppendFlat(nil, before)
		body, err := json.Marshal(MutateRequest{Graph: graphName, Program: program, Query: query, Edges: edges})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(h, "/update", body)
		if !bytes.Equal(graph.AppendFlat(nil, before), flat) {
			t.Fatal("a batch wrote into the arrays of the graph before it")
		}
		return rec.Code
	}
	for i, c := range cases {
		t.Run(c.program, func(t *testing.T) {
			g, _ := servedState(t, s, c.graph)
			shadow := g.Clone()
			stream := gen.UpdateStream(shadow, gen.StreamConfig{Batches: 4, BatchSize: 16, DeleteP: 0.4, Seed: int64(i + 1)})
			for bi, batch := range stream {
				edges := edgesOf(batch)
				if code := update(t, c.graph, c.program, c.query, edges); code != http.StatusOK {
					t.Fatalf("batch %d: HTTP %d", bi, code)
				}
				applyTo(t, shadow, edges)
				now, _ := servedState(t, s, c.graph)
				if err := graph.Diff(shadow, now); err != nil {
					t.Fatalf("batch %d: the base graph differs from the shadow: %v", bi, err)
				}
				resp, err := s.Query(context.Background(), QueryRequest{Graph: c.graph, Program: c.program, Query: c.query})
				if err != nil {
					t.Fatal(err)
				}
				if !resp.Cached {
					t.Fatalf("batch %d: the session's answer was not primed", bi)
				}
				CheckAnswer(t, shadow, c.program, c.query, resp.Result)
			}
		})
	}
	t.Run("rejected", func(t *testing.T) {
		g, epoch := servedState(t, s, "road")
		edges := []EdgeJSON{{From: 0, To: 1, W: 1}, {From: 0, To: 1, Label: "no-such-label", Del: true}}
		if code := update(t, "road", "sssp", "source=0", edges); code != http.StatusBadRequest {
			t.Fatalf("a batch deleting a missing edge: HTTP %d, want 400", code)
		}
		if now, nowEpoch := servedState(t, s, "road"); now != g || nowEpoch != epoch {
			t.Fatalf("a rejected batch replaced the graph or moved the epoch %d -> %d", epoch, nowEpoch)
		}
	})
}

// failingUpdate is a fixture program whose RepairBatch refuses a batch with
// an edge labelled "poison". By then the session has spliced the whole batch
// into its graph, so the refusal breaks the session. failingUpdateCalls
// counts its RepairBatch calls.
type failingUpdate struct{}

var failingUpdateCalls atomic.Int64

func (failingUpdate) Name() string { return "server-failing-update" }

func (failingUpdate) Spec() engine.VarSpec[int64] {
	return engine.VarSpec[int64]{
		Agg: func(a, b int64) int64 { return min(a, b) },
	}
}

func (failingUpdate) PEval(struct{}, *engine.Context[int64]) error   { return nil }
func (failingUpdate) IncEval(struct{}, *engine.Context[int64]) error { return nil }

func (failingUpdate) Assemble(struct{}, []*engine.Context[int64]) (int64, error) { return 0, nil }

func (failingUpdate) CanRepair(struct{}, []engine.EdgeUpdate) bool { return true }

func (failingUpdate) RepairBatch(_ struct{}, _ *engine.RepairScope[int64], batch []engine.EdgeUpdate) (map[int][]graph.ID, error) {
	failingUpdateCalls.Add(1)
	for _, u := range batch {
		if u.Label == "poison" {
			return nil, errors.New("poisoned update")
		}
	}
	return nil, nil
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[struct{}, int64, int64]{
		Prog:      failingUpdate{},
		Parse:     func(string) (struct{}, error) { return struct{}{}, nil },
		Canonical: func(struct{}) string { return "" },
	}))
}

// TestDurableBrokenBatchIsWhole: a RepairBatch that refuses a batch breaks
// the session, yet the base graph holds the whole batch — the updates after
// the poisoned one too — the epoch moves on, and a restart, which splices the
// batch without running RepairBatch, recovers the same graph.
func TestDurableBrokenBatchIsWhole(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	ctx := context.Background()
	g, _ := servedState(t, s, "road")
	shadow := g.Clone()
	edges := []EdgeJSON{{From: 0, To: 100, W: 1}, {From: 1, To: 101, W: 1, Label: "poison"}, {From: 2, To: 102, W: 1}}
	_, err := s.Mutate(ctx, "road", "server-failing-update", "", edges)
	if err == nil || errors.Is(err, ErrBadQuery) {
		t.Fatalf("a batch failing in RepairBatch: %v, want a broken-session error", err)
	}
	applyTo(t, shadow, edges)
	live, epoch := servedState(t, s, "road")
	if epoch != 2 {
		t.Fatalf("epoch %d after a broken batch, want 2", epoch)
	}
	if err := graph.Diff(shadow, live); err != nil {
		t.Fatalf("the base graph does not hold the whole batch: %v", err)
	}
	if rg, _ := s.resident("road"); rg.sess != nil {
		t.Fatal("the broken session was kept")
	}
	// Simulated crash: only the snapshot and the journal survive.
	s = nil

	calls := failingUpdateCalls.Load()
	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	for _, info := range infos {
		if info.Graph == "road" && (info.Epoch != 2 || info.Replayed != 1) {
			t.Fatalf("road recovered at epoch %d after %d records, want 2 after 1", info.Epoch, info.Replayed)
		}
	}
	if n := failingUpdateCalls.Load() - calls; n != 0 {
		t.Fatalf("replay ran RepairBatch %d times, want 0", n)
	}
	recovered, _ := servedState(t, s2, "road")
	if err := graph.Diff(live, recovered); err != nil {
		t.Fatalf("the recovered graph differs from the live one: %v", err)
	}
}

// TestMutateAllocBudget holds the bytes one 16-edge mixed CC batch allocates
// through Server.Mutate on PreferentialAttachment(10000, 5), serve-churn's
// social graph, to 1.25× the 0.63 MB a batch allocates (the mean over the
// same 20 batches, go1.24, amd64, on 8 fennel fragments, which the server is
// pinned to here) since a splice patches only the lists the batch touches
// and hands a derived reverse CSR on. While every splice copied the whole
// CSR, and the first InAt after it derived the whole reverse CSR again, a
// batch allocated 3.78 MB.
func TestMutateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations would swamp the budget")
	}
	const budget = 1.25 * 0.63e6
	g := gen.PreferentialAttachment(10000, 5, 1)
	stream := gen.UpdateStream(g, gen.StreamConfig{Batches: 21, BatchSize: 16, DeleteP: 0.4, Seed: 1})
	s := New(Config{Workers: 8, Strategy: "fennel"})
	defer s.Close()
	if err := s.AddGraph("social", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The first batch opens the session: its initial fixpoint is no batch's cost.
	if _, err := s.Mutate(ctx, "social", "cc", "", edgesOf(stream[0])); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, batch := range stream[1:] {
		if _, err := s.Mutate(ctx, "social", "cc", "", edgesOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(stream)-1)
	t.Logf("%.2f MB allocated a batch", perBatch/1e6)
	if perBatch > budget {
		t.Fatalf("%.2f MB allocated a batch, budget %.2f MB", perBatch/1e6, budget/1e6)
	}
}
