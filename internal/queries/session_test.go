package queries

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/transport"
)

// TestSSSPSessionTracksEvolvingGraph drives the paper's actual IncEval
// definition: Q(G ⊕ M) computed from Q(G) and updates M, never re-running
// PEval. Every batch of random edge insertions must leave the session's
// answer equal to Dijkstra on the mutated graph.
func TestSSSPSessionTracksEvolvingGraph(t *testing.T) {
	g := gen.ConnectedRandom(200, 500, 55)
	shadow := g.Clone() // mutated in lockstep, used for ground truth
	s, res, _, err := engine.NewSession(context.Background(), g, SSSP{}, SSSPQuery{Source: 0},
		engine.Options{Workers: 5, Strategy: partition.Fennel{}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(round int, got map[graph.ID]float64) {
		mustAgree(t, fmt.Sprintf("round %d", round), "sssp", shadow, SSSPQuery{Source: 0}, got)
	}
	check(0, res)

	rng := rand.New(rand.NewSource(99))
	for round := 1; round <= 5; round++ {
		var batch []engine.EdgeUpdate
		for i := 0; i < 10; i++ {
			u := graph.ID(rng.Intn(200))
			v := graph.ID(rng.Intn(200))
			if u == v {
				continue
			}
			w := 0.5 + rng.Float64()*3
			batch = append(batch, engine.EdgeUpdate{From: u, To: v, W: w})
			shadow.AddEdge(u, v, w)
		}
		got, _, err := s.Update(context.Background(), batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		check(round, got)
	}
}

// TestSessionUpdateIsCheaperThanRerun: one small insert-only batch must cost
// a fifth of the initial run's work or less for every class that repairs it.
// A class whose batch silently falls back to a reseed fails here, while every
// answer test still passes.
func TestSessionUpdateIsCheaperThanRerun(t *testing.T) {
	road := func() *graph.Graph { return gen.RoadGrid(40, 40, 5) }
	social := func() *graph.Graph {
		g := gen.PreferentialAttachment(2000, 3, 1)
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
		return g
	}
	roadOpts := engine.Options{Workers: 8, Strategy: partition.TwoD{Cols: 40}}
	for _, c := range []struct {
		program, query string
		build          func() *graph.Graph
		opts           engine.Options
		upd            engine.EdgeUpdate
	}{
		// one local shortcut in a far corner
		{"sssp", "source=0", road, roadOpts, engine.EdgeUpdate{From: 1599, To: 1558, W: 0.1}},
		{"cc", "", road, roadOpts, engine.EdgeUpdate{From: 1599, To: 1558, W: 0.1}},
		{"keyword", "k=db,graph bound=4", social, engine.Options{Workers: 8, Strategy: partition.Hash{}},
			engine.EdgeUpdate{From: 1999, To: 0, W: 1}},
	} {
		t.Run(c.program, func(t *testing.T) {
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := e.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			s, _, initStats, err := e.Session(context.Background(), c.build(), c.opts, pq)
			if err != nil {
				t.Fatal(err)
			}
			_, updStats, err := s.Update(context.Background(), []engine.EdgeUpdate{c.upd})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("update work %d, initial %d", updStats.TotalWork(), initStats.TotalWork())
			if updStats.TotalWork()*5 > initStats.TotalWork() {
				t.Fatalf("incremental update not bounded: %d vs initial %d",
					updStats.TotalWork(), initStats.TotalWork())
			}
		})
	}
}

func TestSSSPSessionRejectsNegativeWeight(t *testing.T) {
	g := gen.ConnectedRandom(30, 90, 1)
	s, before, _, err := engine.NewSession(context.Background(), g, SSSP{}, SSSPQuery{Source: 0}, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := s.Graph().NumEdges()
	if _, _, err := s.Update(context.Background(), []engine.EdgeUpdate{{From: 0, To: 1, W: -2}}); err == nil {
		t.Fatal("negative weights must be rejected")
	}
	// The rejection happens in the pre-mutation validation (ValidateUpdate),
	// so the graph is untouched and the session stays fully usable — bad
	// input must not cost a long-lived session.
	if s.Broken() {
		t.Fatal("a rejected batch must not break the session")
	}
	if s.Graph().NumEdges() != edges {
		t.Fatalf("rejected update mutated the graph: %d edges, had %d", s.Graph().NumEdges(), edges)
	}
	after, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("rejected update changed the answer")
	}
	if _, _, err := s.Update(context.Background(), []engine.EdgeUpdate{{From: 0, To: 1, W: 0.5}}); err != nil {
		t.Fatalf("session must keep accepting valid updates after a rejection: %v", err)
	}
}

func TestCCSessionMergesComponents(t *testing.T) {
	// two separate random clusters; an inserted bridge must merge labels
	g := graph.New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ { // cluster A: 0..49
		g.AddEdge(graph.ID(rng.Intn(50)), graph.ID(rng.Intn(50)), 1)
	}
	for i := 0; i < 50; i++ { // cluster B: 100..149
		g.AddEdge(graph.ID(100+rng.Intn(50)), graph.ID(100+rng.Intn(50)), 1)
	}
	shadow := g.Clone()
	s, res, _, err := engine.NewSession(context.Background(), g, CC{}, CCQuery{}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst := func(round int, got map[graph.ID]graph.ID) {
		mustAgree(t, fmt.Sprintf("round %d", round), "cc", shadow, CCQuery{}, got)
	}
	checkAgainst(0, res)

	// bridge the clusters
	shadow.AddEdge(40, 110, 1)
	res, _, err = s.Update(context.Background(), []engine.EdgeUpdate{{From: 40, To: 110, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(1, res)

	// a few more random inserts, including intra-cluster no-ops
	for round := 2; round <= 4; round++ {
		u := graph.ID(rng.Intn(50))
		v := graph.ID(100 + rng.Intn(50))
		shadow.AddEdge(u, v, 1)
		res, _, err = s.Update(context.Background(), []engine.EdgeUpdate{{From: u, To: v, W: 1}})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(round, res)
	}
}

func TestCCSessionEvolvingProperty(t *testing.T) {
	// randomized: repeatedly insert edges between random vertices and
	// compare against sequential CC on the shadow graph
	g := gen.Random(120, 150, 77) // sparse: many components
	shadow := g.Clone()
	s, _, _, err := engine.NewSession(context.Background(), g, CC{}, CCQuery{}, engine.Options{Workers: 6, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		var batch []engine.EdgeUpdate
		for i := 0; i < 5; i++ {
			u := graph.ID(rng.Intn(120))
			v := graph.ID(rng.Intn(120))
			if u == v {
				continue
			}
			batch = append(batch, engine.EdgeUpdate{From: u, To: v, W: 1})
			shadow.AddEdge(u, v, 1)
		}
		got, _, err := s.Update(context.Background(), batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mustAgree(t, fmt.Sprintf("round %d", round), "cc", shadow, CCQuery{}, got)
	}
}

// sessionCase is one class's session-equivalence run: a deterministic graph
// builder, a query, and an update-stream shape. Cases with DeleteP 0 pin
// the insert half of the repair path, DeleteP 1 its delete half, and mixed
// streams whatever route each class picks per batch (repair, patch, or
// reseed).
type sessionCase struct {
	name    string
	program string
	query   string
	build   func() *graph.Graph
	stream  gen.StreamConfig
}

func sessionCases() []sessionCase {
	social := func() *graph.Graph {
		g := gen.PreferentialAttachment(220, 3, 7)
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.3, 7)
		return g
	}
	commerceOf := func(people int) func() *graph.Graph {
		return func() *graph.Graph {
			return gen.SocialCommerce(gen.SocialCommerceConfig{People: people, Products: 3, Follows: 3, AdoptP: 0.9, Seed: 3})
		}
	}
	commerce := commerceOf(90)
	road := func() *graph.Graph { return gen.RoadGrid(10, 10, 1) }
	return []sessionCase{
		{"sssp", "sssp", "source=0", road,
			gen.StreamConfig{Batches: 4, BatchSize: 6, DeleteP: 0.4, Seed: 11}},
		{"sssp/inserts", "sssp", "source=0", road,
			gen.StreamConfig{Batches: 3, BatchSize: 6, DeleteP: 0, Seed: 18}},
		{"cc", "cc", "", func() *graph.Graph { return gen.Random(120, 220, 5) },
			gen.StreamConfig{Batches: 4, BatchSize: 6, DeleteP: 0.5, Seed: 12}},
		// a tree plus a few chords: most deletions split a component, and
		// this stream moves a component's minimum into a piece (without the
		// remainder rule of CC.RepairBatch it fails)
		{"cc/splits", "cc", "", func() *graph.Graph { return treePlusChords(120, 3, 9) },
			gen.StreamConfig{Batches: 5, BatchSize: 6, DeleteP: 0.6, Seed: 24}},
		{"sim", "sim", "pattern=follows-recommend", commerce,
			gen.StreamConfig{Batches: 4, BatchSize: 5, DeleteP: 0.5, Seed: 13}},
		{"sim/deletes", "sim", "pattern=follows-recommend", commerce,
			gen.StreamConfig{Batches: 3, BatchSize: 5, DeleteP: 1, Seed: 19}},
		{"subiso", "subiso", "pattern=follows-recommend", commerce,
			gen.StreamConfig{Batches: 3, BatchSize: 4, DeleteP: 0.5, Seed: 14}},
		// serve-churn's batch shape: many sources per batch, some sharing a
		// match, insertions and deletions of one edge in the same batch
		{"subiso/churn", "subiso", "pattern=follows-recommend", commerceOf(300),
			gen.StreamConfig{Batches: 6, BatchSize: 16, DeleteP: 0.4, Seed: 21}},
		{"keyword", "keyword", "k=db,graph bound=4", social,
			gen.StreamConfig{Batches: 4, BatchSize: 6, DeleteP: 0.4, Seed: 15}},
		{"keyword/inserts", "keyword", "k=db,graph bound=4", social,
			gen.StreamConfig{Batches: 3, BatchSize: 6, DeleteP: 0, Seed: 20}},
		{"cf", "cf", "epochs=3", func() *graph.Graph {
			return gen.DirectedRatings(gen.RatingsConfig{Users: 30, Items: 12, RatingsPerUser: 6, Factors: 3, Noise: 0.1, Seed: 5})
		}, gen.StreamConfig{Batches: 3, BatchSize: 5, DeleteP: 0.4, Seed: 16, MaxW: 5}},
		{"tricount", "tricount", "", social,
			gen.StreamConfig{Batches: 4, BatchSize: 6, DeleteP: 0.5, Seed: 17}},
		{"tricount/churn", "tricount", "", social,
			gen.StreamConfig{Batches: 6, BatchSize: 16, DeleteP: 0.4, Seed: 22}},
	}
}

// startSessionWorkers brings up n in-process workers on real TCP sockets —
// the socket-substrate half of the equivalence check, running the same code
// path as cmd/grape-worker (engine.ServeWorker over transport.Dial).
func startSessionWorkers(t *testing.T, n int) (*transport.Coordinator, func()) {
	t.Helper()
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := transport.Dial("tcp", addr, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			errs[i] = engine.ServeWorker(context.Background(), conn)
		}(i)
	}
	tr, err := l.AcceptWorkers(n, 10*time.Second)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	finish := func() {
		tr.Close()
		l.Close()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	}
	return tr, finish
}

// TestSpentFleetRefused: a fleet's workers serve one run each, so a second
// run on the same Coordinator is refused before any setup frame is sent,
// with transport.ErrSpent — not read as every worker dying, which with
// Recover on would try to re-home the fragments.
func TestSpentFleetRefused(t *testing.T) {
	const workers = 3
	g := gen.ConnectedRandom(60, 150, 5)
	tr, finish := startSessionWorkers(t, workers)
	defer finish()
	opts := engine.Options{Workers: workers, Strategy: partition.Hash{}, Transport: tr, Recover: true}
	if _, _, err := engine.Run(context.Background(), g, SSSP{}, SSSPQuery{Source: 0}, opts); err != nil {
		t.Fatalf("first run: %v", err)
	}
	_, st, err := engine.Run(context.Background(), g, SSSP{}, SSSPQuery{Source: 0}, opts)
	if !errors.Is(err, transport.ErrSpent) {
		t.Fatalf("second run on a spent fleet: %v, want transport.ErrSpent", err)
	}
	if w, fatal := mpi.WorkerFatalOf(err); fatal {
		t.Fatalf("a spent fleet reads as worker %d dying: %v", w, err)
	}
	if st != nil && len(st.Recoveries) > 0 {
		t.Fatalf("a spent fleet was recovered: %+v", st.Recoveries)
	}
}

// TestSessionEquivalence is the session-equivalence harness over every
// registered query class: replay a random insert/delete stream through an
// incremental session and require its answer after every batch to be
// identical (reflect.DeepEqual) to a from-scratch engine run on a shadow
// graph mutated in lockstep — and, after the final batch, to a from-scratch
// run over the socket transport as well.
func TestSessionEquivalence(t *testing.T) {
	const workers = 4
	for _, c := range sessionCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := e.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			opts := engine.Options{Workers: workers, Strategy: partition.Hash{}}
			g := c.build()
			shadow := g.Clone()
			fresh := func(tg *graph.Graph, o engine.Options) any {
				t.Helper()
				want, _, err := e.Run(context.Background(), tg, o, c.query)
				if err != nil {
					t.Fatalf("fresh run: %v", err)
				}
				return want
			}
			stream := gen.UpdateStream(g, c.stream)
			sess, res0, _, err := e.Session(context.Background(), g, opts, pq)
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh(shadow, opts); !reflect.DeepEqual(res0, want) {
				t.Fatal("initial session result differs from a fresh run")
			}
			var want any
			for bi, batch := range stream {
				ups := updatesOf(batch)
				res, _, err := sess.Update(context.Background(), ups)
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				applyShadow(t, shadow, ups)
				want = fresh(shadow, opts)
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("batch %d: session update result differs from a fresh run on the mutated graph", bi)
				}
				got, err := sess.Result()
				if err != nil {
					t.Fatalf("batch %d: Result: %v", bi, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: retained session result differs from a fresh run", bi)
				}
			}
			if sess.Broken() {
				t.Fatal("session broken after a clean stream")
			}
			// socket substrate: the final retained answer must also match a
			// from-scratch distributed run on the mutated graph
			tr, finish := startSessionWorkers(t, workers)
			defer finish()
			wireWant := fresh(shadow, engine.Options{Workers: workers, Strategy: partition.Hash{}, Transport: tr})
			if !reflect.DeepEqual(want, wireWant) {
				t.Fatal("bus and wire fresh runs disagree on the mutated graph")
			}
			final, err := sess.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(final, wireWant) {
				t.Fatal("final session result differs from a from-scratch socket-substrate run")
			}
		})
	}
}

// FuzzSessionUpdateStream throws arbitrary update streams — mixed inserts,
// deletions, unknown vertices, dead edges — at a CC session. The first byte
// picks the graph: an even one gen.Random(24, 60, 1), an odd one a tree with
// three chords, on which most deletions split a component. Invariants:
// no panic; a rejected batch (error without Broken) leaves the graph
// unmutated and the session usable; an accepted batch leaves the session's
// answer identical to sequential union-find on a shadow graph; once Broken,
// every further Update fails with ErrSessionBroken.
func FuzzSessionUpdateStream(f *testing.F) {
	f.Add([]byte{0, 1, 2, 30, 0, 3, 4, 31, 1})
	f.Add([]byte{0, 0, 1, 5, 0, 0, 1, 5, 1, 0, 1, 5, 1})       // insert, delete it, delete again (dead)
	f.Add([]byte{0, 200, 1, 5, 0})                             // unknown vertex
	f.Add([]byte{0, 9, 9, 1, 0, 7, 3, 0, 1, 2, 2, 2, 0, 1, 1}) // self-loop, delete, trailing garbage
	// On the tree (treePlusChords(24, 3, 18)), TestCCRepairSplits' shapes:
	f.Add([]byte{1, 7, 9, 1, 1})                // cut 7->9: the piece 0..8 holds the old minimum
	f.Add([]byte{1, 10, 9, 1, 1, 11, 10, 1, 1}) // cut both bridges of 10: 0..9 and 11..23 part
	// cut 7->9 (two self-loops pad the batch), then merge the halves back
	// through 8->20 and cut 1->4, the bridge holding the merged minimum
	f.Add([]byte{1, 7, 9, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 8, 20, 1, 0, 1, 4, 1, 1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := gen.Random(24, 60, 1)
		if data[0]%2 == 1 {
			g = treePlusChords(24, 3, 18)
		}
		data = data[1:]
		shadow := g.Clone()
		sess, _, _, err := engine.NewSession(context.Background(), g, CC{}, CCQuery{},
			engine.Options{Workers: 3, Strategy: partition.Hash{}})
		if err != nil {
			t.Fatal(err)
		}
		const rec = 4 // from, to, weight, flags
		for off := 0; off+rec <= len(data); {
			var batch []engine.EdgeUpdate
			for len(batch) < 3 && off+rec <= len(data) {
				b := data[off : off+rec]
				off += rec
				batch = append(batch, engine.EdgeUpdate{
					From: graph.ID(b[0] % 32), // 24..31 are unknown vertices
					To:   graph.ID(b[1] % 32),
					W:    float64(b[2]),
					Del:  b[3]&1 == 1,
				})
			}
			edgesBefore := sess.Graph().NumEdges()
			res, _, err := sess.Update(context.Background(), batch)
			if err != nil {
				if !sess.Broken() {
					// validation rejection: nothing may have been applied
					if sess.Graph().NumEdges() != edgesBefore {
						t.Fatalf("rejected batch mutated the graph: %d -> %d edges", edgesBefore, sess.Graph().NumEdges())
					}
					continue
				}
				// broken sessions must stay broken with the sentinel error
				if _, _, err := sess.Update(context.Background(), []engine.EdgeUpdate{{From: 0, To: 1, W: 1}}); !errors.Is(err, engine.ErrSessionBroken) {
					t.Fatalf("broken session Update returned %v, want ErrSessionBroken", err)
				}
				return
			}
			applyShadow(t, shadow, batch) // fails on a dead edge the session accepted
			mustAgree(t, fmt.Sprintf("batch %+v", batch), "cc", shadow, CCQuery{}, res)
		}
	})
}

// FuzzSubIsoSession throws arbitrary update batches at a SubIso session on a
// small commerce graph (people 0..23, products 24 and 25, 26..31 unknown):
// inserts and deletions under the follow, recommend and empty labels, self
// loops, product sources, dead edges. The first byte picks the pattern. A
// rejected batch must leave the graph unchanged; no batch may break the
// session; after an accepted batch the answer must be seq.SubIso's on a
// shadow graph mutated in lockstep.
func FuzzSubIsoSession(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 3, 1, 1})           // insert 3->1 and delete it in one batch
	f.Add([]byte{1, 1, 0, 0, 1, 0, 1})           // a parallel 1->0 follow, then delete the first instance
	f.Add([]byte{0, 1, 0, 1})                    // delete the follow 1->0 that matches use
	f.Add([]byte{0, 5, 5, 0, 5, 5, 2, 5, 24, 2}) // self-loops, then a recommendation from 5
	f.Add([]byte{1, 24, 3, 2, 24, 25, 0, 7, 24, 4, 8, 7, 0})
	f.Add([]byte{0, 30, 1, 0, 2, 9, 1}) // an unknown vertex; a dead edge
	labels := []string{gen.EdgeFollow, gen.EdgeRecommend, ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := []string{"follows-recommend", "co-recommend"}[data[0]%2]
		data = data[1:]
		g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 24, Products: 2, Follows: 2, AdoptP: 0.9, Seed: 1})
		shadow := g.Clone()
		e, err := engine.Lookup("subiso")
		if err != nil {
			t.Fatal(err)
		}
		pq, err := e.Parse("pattern=" + name)
		if err != nil {
			t.Fatal(err)
		}
		sess, _, _, err := e.Session(context.Background(), g, engine.Options{Workers: 3, Strategy: partition.Hash{}}, pq)
		if err != nil {
			t.Fatal(err)
		}
		const rec = 3 // from, to, flags: bit 0 deletes, the rest pick the label
		for off := 0; off+rec <= len(data); {
			var batch []engine.EdgeUpdate
			for len(batch) < 4 && off+rec <= len(data) {
				b := data[off : off+rec]
				off += rec
				batch = append(batch, engine.EdgeUpdate{
					From: graph.ID(b[0] % 32), To: graph.ID(b[1] % 32), W: 1,
					Label: labels[int(b[2]>>1)%len(labels)], Del: b[2]&1 == 1,
				})
			}
			res, _, err := sess.Update(context.Background(), batch)
			if sess.Broken() {
				t.Fatalf("batch %+v broke the session: %v", batch, err)
			}
			if err != nil {
				if sess.Graph().NumEdges() != shadow.NumEdges() {
					t.Fatalf("rejected batch %+v mutated the graph: %d edges, want %d", batch, sess.Graph().NumEdges(), shadow.NumEdges())
				}
				continue
			}
			applyShadow(t, shadow, batch) // fails on a dead edge the session accepted
			if err := e.Check(shadow, pq, res); err != nil {
				t.Fatalf("after batch %+v: %v", batch, err)
			}
		}
	})
}
