package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/queries"
)

// testGraphs builds one graph per query-class family and the query each
// registered program answers on it.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	road := gen.RoadGrid(24, 24, 1)
	social := gen.PreferentialAttachment(1500, 4, 7)
	gen.AttachKeywords(social, []string{"db", "graph", "ml"}, 2, 0.05, 7)
	commerce := gen.SocialCommerce(gen.SocialCommerceConfig{People: 400, Products: 8, Follows: 4, AdoptP: 0.9, Seed: 3})
	ratings := gen.Ratings(gen.RatingsConfig{Users: 80, Items: 30, RatingsPerUser: 10, Factors: 4, Noise: 0.1, Seed: 5})
	return map[string]*graph.Graph{"road": road, "social": social, "commerce": commerce, "ratings": ratings}
}

// programCases maps every registered program to the (graph, query) it runs
// in these tests — one entry per query class, kept in sync with the
// registry by TestEveryProgramCovered.
var programCases = []struct {
	program, graph, query string
}{
	{"sssp", "road", "source=0"},
	{"cc", "social", ""},
	{"sim", "commerce", "pattern=follows-recommend"},
	{"subiso", "commerce", "pattern=follows-recommend max=50"},
	{"keyword", "social", "k=db,graph bound=4"},
	{"cf", "ratings", "epochs=5"},
	{"tricount", "social", ""},
}

func TestEveryProgramCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range programCases {
		covered[c.program] = true
	}
	for _, e := range engine.Library() {
		if e.Name == "server-spinner" || e.Name == "server-gate" || e.Name == "server-failing-update" {
			continue // fixtures registered by cancel_test.go, durable_test.go and basegraph_test.go
		}
		if !covered[e.Name] {
			t.Errorf("registered program %q has no serving test case", e.Name)
		}
	}
}

func newTestServer(t testing.TB, cfg Config) (*Server, map[string]*graph.Graph) {
	t.Helper()
	gs := testGraphs(t)
	s := New(cfg)
	for name, g := range gs {
		if err := s.AddGraph(name, g); err != nil {
			t.Fatal(err)
		}
	}
	return s, gs
}

// TestCutDefaults: the cut is decided in one place. A zero fragment count is
// runtime.GOMAXPROCS(0) when the run or the server starts, and no strategy
// is partition.Default, for engine.Options and Config alike; an explicit
// Workers or Strategy wins.
func TestCutDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3)) // not the machine's count, nor any old constant
	g := gen.Random(60, 180, 4)
	cut := func(opts engine.Options, n int, want partition.Strategy) {
		t.Helper()
		layout, err := engine.BuildLayout(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := want.Partition(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(layout.Fragments) != n {
			t.Fatalf("%+v: %d fragments, want %d", opts, len(layout.Fragments), n)
		}
		for _, v := range g.Vertices() {
			if layout.Asg.Owner(v) != asg.Owner(v) {
				t.Fatalf("%+v: vertex %d on fragment %d, %s puts it on %d", opts, v, layout.Asg.Owner(v), want.Name(), asg.Owner(v))
			}
		}
	}
	cut(engine.Options{}, 3, partition.Default)
	cut(engine.Options{Workers: 5}, 5, partition.Default)
	cut(engine.Options{Strategy: partition.Hash{}}, 3, partition.Hash{})

	for _, c := range []struct {
		cfg      Config
		workers  int
		strategy partition.Strategy
	}{
		{Config{}, 3, partition.Default},
		{Config{Workers: 5}, 5, partition.Default},
		{Config{Strategy: "hash"}, 3, partition.Hash{}},
	} {
		s := New(c.cfg)
		s.Close()
		if s.cfg.Workers != c.workers || s.strat != c.strategy || s.stratErr != nil {
			t.Fatalf("%+v: %d workers, strategy %v (%v); want %d, %s", c.cfg, s.cfg.Workers, s.strat, s.stratErr, c.workers, c.strategy.Name())
		}
	}
}

// servedState reads the graph and epoch s serves under name now. A mutation
// replaces the graph with a new one; the one AddGraph was given stays as it
// was.
func servedState(t testing.TB, s *Server, name string) (*graph.Graph, uint64) {
	t.Helper()
	rg, err := s.resident(name)
	if err != nil {
		t.Fatal(err)
	}
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	return rg.g, rg.epoch
}

// TestServerMatchesEngineRun is the core acceptance: every registered query
// class answered through the server must be identical to a solo engine run
// on the same graph with the same layout parameters.
func TestServerMatchesEngineRun(t *testing.T) {
	s, gs := newTestServer(t, Config{Workers: 8, Strategy: "hash"})
	strat := partition.Hash{}
	for _, c := range programCases {
		t.Run(c.program, func(t *testing.T) {
			resp, err := s.Query(context.Background(), QueryRequest{Graph: c.graph, Program: c.program, Query: c.query})
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := e.Run(context.Background(), gs[c.graph], engine.Options{Workers: 8, Strategy: strat}, c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp.Result, want) {
				t.Fatalf("server result differs from engine.Run for %s %q", c.program, c.query)
			}
			if resp.Cached {
				t.Fatal("first query reported cached")
			}
			if resp.Stats.Supersteps == 0 {
				t.Fatal("missing run stats")
			}
		})
	}
}

// TestServerConcurrentQueries answers every class with at least 8 queries in
// flight at once (the acceptance criterion's concurrency bar; CI runs this
// under -race) and checks each against its solo run.
func TestServerConcurrentQueries(t *testing.T) {
	s, gs := newTestServer(t, Config{Workers: 4, Strategy: "hash", MaxInFlight: 16, MaxQueue: 128})
	want := make(map[string]any)
	for _, c := range programCases {
		e, err := engine.Lookup(c.program)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.Run(context.Background(), gs[c.graph], engine.Options{Workers: 4, Strategy: partition.Hash{}}, c.query)
		if err != nil {
			t.Fatal(err)
		}
		want[c.program] = res
	}
	const perProgram = 3 // 7 programs x 3 > 8 concurrent, NoCache keeps them real runs
	var wg sync.WaitGroup
	errs := make(chan error, len(programCases)*perProgram)
	for _, c := range programCases {
		for i := 0; i < perProgram; i++ {
			wg.Add(1)
			go func(program, graphName, query string) {
				defer wg.Done()
				resp, err := s.Query(context.Background(), QueryRequest{Graph: graphName, Program: program, Query: query, NoCache: true})
				if err != nil {
					errs <- fmt.Errorf("%s: %w", program, err)
					return
				}
				if !reflect.DeepEqual(resp.Result, want[program]) {
					errs <- fmt.Errorf("%s: concurrent result differs from solo run", program)
				}
			}(c.program, c.graph, c.query)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.CacheMisses < uint64(len(programCases)*perProgram) {
		t.Fatalf("expected %d real runs, misses = %d", len(programCases)*perProgram, st.CacheMisses)
	}
}

func TestServerCache(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4})
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"}
	first, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold query reported cached")
	}
	second, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("warm query not served from cache")
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatal("cache returned a different result")
	}
	// equivalent spellings canonicalize to one entry
	alias, err := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "keyword", Query: "bound=4.0 k=db"})
	if err == nil {
		_ = alias // road has no keywords; the run may legitimately error or return empty
	}
	canon, err := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "sssp", Query: "  source=0 "})
	if err != nil {
		t.Fatal(err)
	}
	if !canon.Cached {
		t.Fatal("whitespace variant of the same query missed the cache")
	}
	// NoCache bypasses the read path but still reports the fresh answer
	nocache, err := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "sssp", Query: "source=0", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if nocache.Cached {
		t.Fatal("NoCache query served from cache")
	}
	st := s.Stats()
	if st.CacheHits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", st.CacheHits)
	}
	if st.CacheHitRate <= 0 {
		t.Fatal("hit rate not reported")
	}
}

// TestMutateBumpsEpochAndInvalidates is the continuous-update acceptance: a
// mutation through the session path bumps the epoch, cached results for the
// old epoch stop being served, and post-mutation answers match a fresh solo
// run on the mutated graph.
func TestMutateBumpsEpochAndInvalidates(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, Strategy: "hash"})
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"}
	before, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if before.Epoch != 1 {
		t.Fatalf("initial epoch = %d, want 1", before.Epoch)
	}
	// a shortcut edge that lowers many distances
	far := before.Result.(map[graph.ID]float64)
	var target graph.ID
	var best float64
	for v, d := range far {
		if d > best {
			best, target = d, v
		}
	}
	mut, err := s.Mutate(context.Background(), "road", "", "", []EdgeJSON{{From: 0, To: int64(target), W: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 2 {
		t.Fatalf("post-mutation epoch = %d, want 2", mut.Epoch)
	}
	after, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-mutation query served the stale cached result")
	}
	if after.Epoch != 2 {
		t.Fatalf("post-mutation answer epoch = %d, want 2", after.Epoch)
	}
	if got := after.Result.(map[graph.ID]float64)[target]; got != 0.01 {
		t.Fatalf("distance to %d after shortcut = %g, want 0.01", target, got)
	}
	road, _ := servedState(t, s, "road")
	want, _, err := engine.Run(context.Background(), road, queries.SSSP{}, queries.SSSPQuery{Source: 0},
		engine.Options{Workers: 4, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Result, want) {
		t.Fatal("post-mutation server result differs from a fresh engine run on the mutated graph")
	}
	// the mutation's incrementally refreshed CC answer was primed under the
	// new epoch: a cc query at server defaults is a cache hit...
	cc, err := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "cc", Query: ""})
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Cached {
		t.Fatal("cc answer was not primed by the mutation")
	}
	// ...and identical to a fresh run
	wantCC, _, err := engine.Run(context.Background(), road, queries.CC{}, queries.CCQuery{},
		engine.Options{Workers: 4, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cc.Result, wantCC) {
		t.Fatal("primed cc result differs from a fresh engine run")
	}
}

// TestMutateProgramRouting pins the generalized mutation path: mutations
// name the (program, query) whose session they flow through, deletions are
// accepted, the session's refreshed answer is primed under that program's
// cache key, and switching programs drops the retained session without
// losing correctness.
func TestMutateProgramRouting(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, Strategy: "hash"})
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"}
	fresh := func() map[graph.ID]float64 {
		t.Helper()
		road, _ := servedState(t, s, "road")
		want, _, err := engine.Run(context.Background(), road, queries.SSSP{}, queries.SSSPQuery{Source: 0},
			engine.Options{Workers: 4, Strategy: partition.Hash{}})
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	// insert through an sssp session: the primed answer is a cache hit for
	// the same canonical query and matches a fresh run
	mut, err := s.Mutate(context.Background(), "road", "sssp", "source=0", []EdgeJSON{{From: 0, To: 37, W: 0.01, Label: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Program != "sssp" || mut.Canonical != "source=0" {
		t.Fatalf("mutation reported (%s, %q), want (sssp, source=0)", mut.Program, mut.Canonical)
	}
	resp, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("sssp answer was not primed by the sssp-session mutation")
	}
	if !reflect.DeepEqual(resp.Result, fresh()) {
		t.Fatal("primed sssp result differs from a fresh run on the mutated graph")
	}
	// delete the shortcut again through the same retained session
	if _, err := s.Mutate(context.Background(), "road", "sssp", "source=0",
		[]EdgeJSON{{From: 0, To: 37, Label: "x", Del: true}}); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("sssp answer was not primed by the deletion")
	}
	if !reflect.DeepEqual(resp.Result, fresh()) {
		t.Fatal("post-deletion sssp result differs from a fresh run")
	}
	// switching to the default cc session drops the sssp one and primes cc
	if _, err := s.Mutate(context.Background(), "road", "", "", []EdgeJSON{{From: 0, To: 38, W: 1, Label: "y"}}); err != nil {
		t.Fatal(err)
	}
	cc, err := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "cc", Query: ""})
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Cached {
		t.Fatal("cc answer was not primed after the program switch")
	}
	rg, err := s.resident("road")
	if err != nil {
		t.Fatal(err)
	}
	rg.mu.Lock()
	prog := rg.sessProg
	rg.mu.Unlock()
	if prog != "cc" {
		t.Fatalf("retained session program = %q, want cc", prog)
	}
}

func TestServerErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
		want error
	}{
		{"unknown graph", QueryRequest{Graph: "nope", Program: "sssp", Query: "source=0"}, ErrNotFound},
		{"unknown program", QueryRequest{Graph: "road", Program: "nope"}, ErrNotFound},
		{"bad query", QueryRequest{Graph: "road", Program: "sssp", Query: "source=abc"}, ErrBadQuery},
		{"negative subiso max", QueryRequest{Graph: "road", Program: "subiso", Query: "pattern=triangle max=-1"}, ErrBadQuery},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := s.Query(context.Background(), c.req)
			if err == nil || !errorsIs(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
	if _, err := s.Mutate(context.Background(), "ratings", "", "", []EdgeJSON{{From: 0, To: 1, W: 1}}); err == nil {
		t.Fatal("mutating an undirected graph must fail (sessions are directed-only)")
	}
	// A strategy the server was configured with but cannot resolve is the
	// server's fault, not the client's: neither a 400 nor a 404.
	t.Run("unknown configured strategy", func(t *testing.T) {
		s := New(Config{Strategy: "nope"})
		if err := s.AddGraph("road", gen.RoadGrid(4, 4, 1)); err != nil {
			t.Fatal(err)
		}
		_, qerr := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
		_, merr := s.Mutate(context.Background(), "road", "", "", []EdgeJSON{{From: 0, To: 15, W: 1}})
		for _, err := range []error{qerr, merr} {
			if err == nil || errorsIs(err, ErrBadQuery) || errorsIs(err, ErrNotFound) || !strings.Contains(err.Error(), `unknown strategy "nope"`) {
				t.Fatalf("err = %v, want the unknown strategy as a server fault", err)
			}
		}
	})
}

// errorsIs avoids importing errors just for the test.
func errorsIs(err, target error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == target {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestLayoutSharing checks the partition-once promise: two programs on the
// same (graph, hops) share one layout slot.
func TestLayoutSharing(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4})
	for _, q := range []QueryRequest{
		{Graph: "road", Program: "sssp", Query: "source=0"},
		{Graph: "road", Program: "cc"},
		{Graph: "road", Program: "tricount"}, // hops=1: its own slot
	} {
		if _, err := s.Query(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q.Program, err)
		}
	}
	rg, err := s.resident("road")
	if err != nil {
		t.Fatal(err)
	}
	rg.lmu.Lock()
	defer rg.lmu.Unlock()
	if len(rg.layouts) != 2 {
		t.Fatalf("layout slots = %d, want 2 (hops 0 shared by sssp+cc, hops 1 for tricount)", len(rg.layouts))
	}
}

// TestResidentLayoutsBounded pins one resident layout per (graph, hops): a
// client cannot make the server partition the graph again by naming a
// worker count or a strategy. 96 nocache bodies that name both are refused,
// and they leave no layout slot and no live heap behind.
func TestResidentLayoutsBounded(t *testing.T) {
	s := New(Config{Workers: 8, Strategy: "2d"})
	if err := s.AddGraph("social", gen.PreferentialAttachment(10000, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), QueryRequest{Graph: "social", Program: "cc"}); err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	h := s.Handler()
	for _, strat := range []string{"hash", "range", "2d", "fennel", "ldg", "metis"} {
		for workers := 1; workers <= 16; workers++ {
			body := fmt.Sprintf(`{"graph":"social","program":"cc","query":"","nocache":true,"workers":%d,"strategy":%q}`, workers, strat)
			if rec := post(h, "/query", []byte(body)); rec.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", body, rec.Code)
			}
		}
	}
	after := liveHeap()
	rg, err := s.resident("social")
	if err != nil {
		t.Fatal(err)
	}
	rg.lmu.Lock()
	slots := len(rg.layouts)
	rg.lmu.Unlock()
	if slots > 1 {
		t.Errorf("layout slots = %d, want at most 1 (one per hops served)", slots)
	}
	if grown := int64(after) - int64(before); grown > 16<<20 {
		t.Errorf("live heap grew %.1f MB, want at most 16", float64(grown)/(1<<20))
	}
	runtime.KeepAlive(s)
}

// TestReplacedGraphCannotServeStaleCache pins the generation half of the
// cache key: answers computed against a graph instance that AddGraph has
// since replaced — even by a Mutate that resolved the old instance before
// the replacement — must never be served for the new instance.
func TestReplacedGraphCannotServeStaleCache(t *testing.T) {
	s := New(Config{Workers: 4, Strategy: "hash"})
	old := gen.RoadGrid(8, 8, 1)
	if err := s.AddGraph("g", old); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Graph: "g", Program: "sssp", Query: "source=0"}
	first, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// mutate (primes cc under the old instance's key space) then replace
	if _, err := s.Mutate(context.Background(), "g", "", "", []EdgeJSON{{From: 0, To: 63, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddGraph("g", gen.RoadGrid(12, 12, 2)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []QueryRequest{req, {Graph: "g", Program: "cc", Query: ""}} {
		resp, err := s.Query(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatalf("%s: replacement graph served a cached answer from the old instance", r.Program)
		}
		if r.Program == "sssp" {
			if len(resp.Result.(map[graph.ID]float64)) == len(first.Result.(map[graph.ID]float64)) {
				t.Fatal("replacement graph returned the old graph's answer shape")
			}
		}
	}
}
