package engine

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"strings"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// sessionProg is countdown extended with a Repairer so the session machinery
// can be tested without pulling in the queries package (which would create
// an import cycle for engine tests).
type sessionProg struct{ countdown }

func (sessionProg) CanRepair(q cdQuery, batch []EdgeUpdate) bool { return true }

// RepairBatch lowers each inserted edge's target to the edge weight where
// that improves it (a decrease-only toy update rule) and invalidates nothing
// for a deletion: the follow-up fixpoint starts from the lowered targets and
// the deleted edges' sources.
func (sessionProg) RepairBatch(q cdQuery, sc *RepairScope[int64], batch []EdgeUpdate) (map[int][]graph.ID, error) {
	dirty := make(map[int][]graph.ID)
	for _, u := range batch {
		w := sc.Owner(u.From)
		if u.Del {
			dirty[w] = append(dirty[w], u.From)
			continue
		}
		if ctx := sc.Ctx(w); int64(u.W) < ctx.Get(u.To) {
			ctx.Set(u.To, int64(u.W))
			dirty[w] = append(dirty[w], u.To)
		}
	}
	return dirty, nil
}

func TestSessionInitialRunMatchesRun(t *testing.T) {
	g := gen.Random(60, 180, 21)
	want, _, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("session initial run differs: %d vs %d", len(got), len(want))
	}
	for v, x := range want {
		if got[v] != x {
			t.Fatalf("vertex %d: %d vs %d", v, got[v], x)
		}
	}
}

func TestSessionUpdatePropagatesAcrossFragments(t *testing.T) {
	// chain 0 -> 1 -> 2 -> 3 spread over fragments; lowering one node's
	// value via an update must reach its copies and halve onward.
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	s, res, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("want 4 vertices, got %d", len(res))
	}
	// insert an edge 0 -> 3 with weight 2: RepairBatch lowers 3's value to 2,
	// then the halving fixpoint brings it to 1
	res2, stats, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 3, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res2[3] != 1 {
		t.Fatalf("update did not converge: vertex 3 = %d", res2[3])
	}
	if stats.Supersteps < 1 {
		t.Fatal("incremental run should have at least one superstep")
	}
	// Result() re-assembles without recomputation
	res3, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res3[3] != res2[3] {
		t.Fatal("Result() differs from Update()'s answer")
	}
}

func TestSessionUpdateCreatesOuterCopy(t *testing.T) {
	// an update whose target was never on the source's fragment forces a
	// new outer copy + placement extension
	g := graph.New()
	g.AddVertex(0, "")
	g.AddVertex(100, "")
	g.AddEdge(0, 1, 1) // fragment of 0 knows 1
	s, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 100, W: 3}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res[100] != 1 { // 3 halves to 1
		t.Fatalf("vertex 100 should have converged to 1, got %d", res[100])
	}
}

// TestSessionFragmentsStayFrozen pins that a session splices its fragments
// instead of mutating them in place: after every Update, on the repair and
// reseed paths, each fragment graph is valid and the one it replaced still
// encodes to the bytes it had.
func TestSessionFragmentsStayFrozen(t *testing.T) {
	for _, c := range []struct {
		name string
		prog Program[cdQuery, int64, map[graph.ID]int64]
	}{
		{"repair", sessionProg{}},
		{"reseed", countdown{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := gen.Random(60, 180, 9)
			s, _, _, err := NewSession(context.Background(), g, c.prog, cdQuery{}, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			vs := g.Vertices()
			for round := 0; round < 4; round++ {
				u := vs[(7*round)%len(vs)]
				batch := []EdgeUpdate{{From: u, To: vs[(7*round+31)%len(vs)], W: 5}, {From: u, To: u, W: 3}}
				if round%2 == 1 {
					e := g.Out(u)[0]
					batch = append(batch, EdgeUpdate{From: u, To: e.To, Label: e.Label, Del: true})
				}
				before := make([][]byte, len(s.layout.Fragments))
				olds := make([]*graph.Graph, len(s.layout.Fragments))
				for i, f := range s.layout.Fragments {
					olds[i], before[i] = f.G, graph.AppendFlat(nil, f.G)
				}
				if _, _, err := s.Update(context.Background(), batch); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i, f := range s.layout.Fragments {
					if err := f.G.Validate(); err != nil {
						t.Fatalf("round %d: fragment %d: %v", round, f.Index, err)
					}
					if !bytes.Equal(graph.AppendFlat(nil, olds[i]), before[i]) {
						t.Fatalf("round %d: fragment %d was written in place", round, f.Index)
					}
				}
			}
		})
	}
}

func TestSessionRejectsUnknownVertices(t *testing.T) {
	g := gen.Random(20, 40, 1)
	s, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 99999, W: 1}}); err == nil {
		t.Fatal("expected error for unknown vertex")
	}
}

func TestSessionNonUpdaterProgramReseeds(t *testing.T) {
	// a program with no incremental hooks still takes updates: the session
	// falls back to reseeding, which must match a from-scratch run on the
	// mutated graph. countdown's answer depends on the cut and the session
	// keeps its own, so the strategy is one whose cut ignores edges.
	g := gen.Random(20, 40, 2)
	opts := Options{Workers: 2, Strategy: partition.Hash{}}
	s, _, _, err := NewSession(context.Background(), g, countdown{}, cdQuery{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Run(context.Background(), g, countdown{}, cdQuery{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range want {
		if got[v] != x {
			t.Fatalf("vertex %d after reseed: %d vs fresh run %d", v, got[v], x)
		}
	}
}

func TestSessionReseedHandlesDeletes(t *testing.T) {
	g := gen.Random(20, 60, 3)
	s, _, _, err := NewSession(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Out(g.Vertices()[0])[0]
	batch := []EdgeUpdate{{From: g.Vertices()[0], To: e.To, Label: e.Label, Del: true}}
	got, _, err := s.Update(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range want {
		if got[v] != x {
			t.Fatalf("vertex %d after delete reseed: %d vs fresh run %d", v, got[v], x)
		}
	}
}

func TestSessionValidateRejectsMissingDelete(t *testing.T) {
	g := gen.Random(20, 40, 4)
	s, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := g.Vertices()
	var u, v graph.ID = vs[0], vs[1]
	for _, e := range g.Out(u) { // ensure u->v does not exist
		if e.To == v {
			t.Skip("random graph happens to contain the edge")
		}
	}
	edges := s.Graph().NumEdges()
	_, _, err = s.Update(context.Background(), []EdgeUpdate{{From: u, To: v, Del: true}})
	if err == nil || !strings.Contains(err.Error(), "no matching edge") {
		t.Fatalf("want missing-edge rejection, got %v", err)
	}
	if s.Graph().NumEdges() != edges {
		t.Fatal("rejected batch must not mutate the graph")
	}
	if s.Broken() {
		t.Fatal("rejected batch must not break the session")
	}
	// a batch may delete an edge it inserted earlier in the same batch
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{
		{From: u, To: v, W: 1},
		{From: u, To: v, Del: true},
	}); err != nil {
		t.Fatalf("insert-then-delete within one batch should validate: %v", err)
	}
}

func TestSessionRejectsUndirected(t *testing.T) {
	g := graph.NewUndirected()
	g.AddEdge(0, 1, 1)
	if _, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 2}); err == nil {
		t.Fatal("expected undirected rejection")
	}
}

// TestSessionRejectsFaultTolerance: a replay from PEval cannot rebuild a
// *resumed* session context, so sessions must refuse Options.Recover loudly
// instead of accepting and ignoring it.
func TestSessionRejectsFaultTolerance(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1, 1)
	_, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 2, Recover: true})
	if err == nil || !strings.Contains(err.Error(), "Options.Recover") {
		t.Fatalf("want a loud rejection naming the option, got %v", err)
	}
}

// TestSessionFaultBreaksSession: sessions run the shared superstep driver, so
// Options.Fault reaches them. With recovery unavailable, an injected
// worker-fatal error during an update fails it and — the graph is already
// mutated — breaks the session.
func TestSessionFaultBreaksSession(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	armed := false
	opts := Options{Workers: 2, Fault: func(tr mpi.Transport) mpi.Transport {
		if !armed {
			return tr
		}
		return mpi.NewFaultTransport(tr, mpi.Fault{Step: 1, Worker: 0, Kind: mpi.Drop}, mpi.Fault{Step: 1, Worker: 1, Kind: mpi.Drop})
	}}
	s, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 1, W: 2}}); !errors.Is(err, mpi.ErrInjectedFault) {
		t.Fatalf("want the injected fault to fail the update, got %v", err)
	}
	if !s.Broken() {
		t.Fatal("a faulted update must break the session")
	}
	armed = false
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 1, To: 2, W: 1}}); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("a broken session must refuse further updates, got %v", err)
	}
}

// patchProg is countdown as a SessionPatcher: the retained answer is the
// assembled one, and a batch leaves it as it is.
type patchProg struct{ countdown }

func (patchProg) SessionQuery(q cdQuery) cdQuery { return q }

func (patchProg) InitPatch(q cdQuery, g *graph.Graph, res map[graph.ID]int64) (any, error) {
	return maps.Clone(res), nil
}

func (patchProg) ApplyPatch(q cdQuery, old, g *graph.Graph, state any, batch []EdgeUpdate) (any, error) {
	return state, nil
}

func (patchProg) PatchResult(q cdQuery, state any) (map[graph.ID]int64, error) {
	return maps.Clone(state.(map[graph.ID]int64)), nil
}

// TestPatcherSessionKeepsNoFragments: once NewSession has the initial answer,
// a SessionPatcher session holds the graph and its patch state and nothing of
// the run — no layout, context or fold — and a batch still patches, over the
// spliced graph, with the worker count the session was opened with.
func TestPatcherSessionKeepsNoFragments(t *testing.T) {
	g := gen.Random(60, 180, 21)
	s, first, _, err := NewSession(context.Background(), g, patchProg{}, cdQuery{}, Options{Workers: 4, ExpandHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.layout != nil || s.ctxs != nil || s.fold != nil || s.Layout() != nil {
		t.Fatal("a patcher session keeps its layout, contexts or fold after the initial run")
	}
	from, to := g.Vertices()[0], g.Vertices()[1]
	res, stats, err := s.Update(context.Background(), []EdgeUpdate{{From: from, To: to, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 || len(res) != len(first) {
		t.Fatalf("patched batch: %d workers, %d answers; want 4 and %d", stats.Workers, len(res), len(first))
	}
	if s.Graph().NumEdges() != g.NumEdges()+1 {
		t.Fatalf("the session graph has %d edges, want %d", s.Graph().NumEdges(), g.NumEdges()+1)
	}
	if again, err := s.Result(); err != nil || len(again) != len(first) {
		t.Fatalf("Result: %d answers, %v", len(again), err)
	}
}
