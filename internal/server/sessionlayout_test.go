package server

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/queries"
)

// After a batch, under every strategy, the hops-0 slot holds the retained
// session's layout, spliced to the new epoch, and cut-invariant programs
// answer misses on it instead of on a fresh cut.

// defaultSlot returns the graph's hops-0 slot and its retained session's
// layout (nil without a session), under the graph's read lock.
func defaultSlot(t *testing.T, s *Server, name string) (*layoutSlot, *partition.Layout) {
	t.Helper()
	rg, err := s.resident(name)
	if err != nil {
		t.Fatal(err)
	}
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	var sess *partition.Layout
	if rg.sess != nil {
		sess = rg.sess.Layout()
	}
	rg.lmu.Lock()
	defer rg.lmu.Unlock()
	return rg.layouts[0], sess
}

// missCase is one nocache read on a graph, checked by its class's
// Entry.Check.
type missCase struct{ graph, program, query string }

// TestServedMissOnSessionLayout mutates road through an sssp session and
// social through a cc session, under each built-in strategy. After every
// batch a nocache cc on road and sssp and keyword on social answer as
// internal/seq does on a shadow graph, and run on the session's layout: the
// default slot holds it, and no fresh cut was built — an edge-driven
// strategy's session layout included, although a fresh cut of the changed
// graph would place vertices elsewhere. A batch that breaks the session and a
// SubIso session, whose fragments lag its graph, fall back to a fresh cut.
// Then nocache queries run beside a loop of batches, each answer checked
// against the shadow at the epoch it reports.
func TestServedMissOnSessionLayout(t *testing.T) {
	for _, strat := range partition.Strategies() {
		t.Run(strat.Name(), func(t *testing.T) { servedMissOnSessionLayout(t, strat.Name()) })
	}
}

func servedMissOnSessionLayout(t *testing.T, strategy string) {
	s, gs := newTestServer(t, Config{Workers: 4, Strategy: strategy})
	defer s.Close()
	ctx := context.Background()
	sessions := map[string][2]string{"road": {"sssp", "source=0"}, "social": {"cc", ""}}
	misses := []missCase{{"road", "cc", ""}, {"social", "sssp", "source=0"}, {"social", "keyword", "k=db,graph bound=4"}}
	streams := map[string][][]gen.Update{}
	shadows := map[string]*graph.Graph{}
	for i, name := range []string{"road", "social"} {
		shadows[name] = gs[name].Clone()
		streams[name] = gen.UpdateStream(gs[name], gen.StreamConfig{Batches: 12, BatchSize: 16, DeleteP: 0.4, Seed: int64(i + 1)})
	}
	mutate := func(name string, batch []gen.Update) {
		t.Helper()
		edges := edgesOf(batch)
		if _, err := s.Mutate(ctx, name, sessions[name][0], sessions[name][1], edges); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		applyTo(t, shadows[name], edges)
	}
	miss := func(c missCase) *QueryResponse {
		t.Helper()
		resp, err := s.Query(ctx, QueryRequest{Graph: c.graph, Program: c.program, Query: c.query, NoCache: true})
		if err != nil {
			t.Fatalf("%s on %s: %v", c.program, c.graph, err)
		}
		return resp
	}

	for b := range 6 {
		for _, name := range []string{"road", "social"} {
			mutate(name, streams[name][b])
		}
		for _, c := range misses {
			CheckAnswer(t, shadows[c.graph], c.program, c.query, miss(c).Result)
		}
		for _, name := range []string{"road", "social"} {
			slot, sess := defaultSlot(t, s, name)
			if sess == nil || slot == nil || slot.session != sess {
				t.Fatalf("batch %d: %s's default slot does not hold the session's layout", b, name)
			}
			if slot.layout != nil {
				t.Fatalf("batch %d: %s's misses built a fresh cut", b, name)
			}
		}
	}

	// A batch that breaks the session lands whole; the session is dropped,
	// so the next miss cuts the graph fresh.
	poison := []EdgeJSON{{From: 0, To: 100, W: 1}, {From: 1, To: 101, W: 1, Label: "poison"}}
	if _, err := s.Mutate(ctx, "road", "server-failing-update", "", poison); err == nil {
		t.Fatal("a poisoned batch did not break its session")
	}
	applyTo(t, shadows["road"], poison)
	CheckAnswer(t, shadows["road"], "cc", "", miss(misses[0]).Result)
	if slot, sess := defaultSlot(t, s, "road"); sess != nil || slot == nil || slot.session != nil || slot.layout == nil {
		t.Fatal("after a broken batch the miss did not run on a fresh cut")
	}

	// A SubIso session patches its answer and leaves its fragments behind,
	// so it offers no layout: a miss on commerce cuts the graph fresh.
	if _, err := s.Mutate(ctx, "commerce", "subiso", "pattern=follows-recommend", []EdgeJSON{{From: 0, To: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, QueryRequest{Graph: "commerce", Program: "sim", Query: "pattern=follows-recommend", NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if slot, sess := defaultSlot(t, s, "commerce"); sess != nil || slot == nil || slot.session != nil || slot.layout == nil {
		t.Fatal("a SubIso session's fragments served a miss")
	}

	// Concurrent misses beside the rest of the batches: every answer must be
	// correct on the shadow at the epoch the server reports.
	at := map[string]map[uint64]*graph.Graph{} // graph → epoch → frozen shadow
	batches := map[string][][]EdgeJSON{}
	for _, name := range []string{"road", "social"} {
		_, epoch := servedState(t, s, name)
		at[name] = map[uint64]*graph.Graph{}
		for b := 6; ; b++ {
			at[name][epoch] = shadows[name].Clone().Freeze()
			if b == len(streams[name]) {
				break
			}
			edges := edgesOf(streams[name][b])
			batches[name] = append(batches[name], edges)
			applyTo(t, shadows[name], edges)
			epoch++
		}
	}
	done := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for _, c := range misses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				resp, err := s.Query(ctx, QueryRequest{Graph: c.graph, Program: c.program, Query: c.query, NoCache: true})
				if err != nil {
					errs <- err
					return
				}
				g := at[c.graph][resp.Epoch]
				if g == nil {
					errs <- fmt.Errorf("%s on %s answered at epoch %d, which no batch made", c.program, c.graph, resp.Epoch)
					return
				}
				if err := answerErr(g, c.program, c.query, resp.Result); err != nil {
					errs <- fmt.Errorf("%s on %s at epoch %d: %v", c.program, c.graph, resp.Epoch, err)
					return
				}
			}
		}()
	}
	for b := range batches["road"] {
		for _, name := range []string{"road", "social"} {
			if _, err := s.Mutate(ctx, name, sessions[name][0], sessions[name][1], batches[name][b]); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServedCFAfterMutationMatchesFreshCut: cf is not cut-invariant — its
// pairwise averaging depends on the order values meet, so its answer depends
// on the fragments. After batches through a cc session, a cf miss must still
// run on a fresh cut and equal a fresh server's answer over the same graph.
func TestServedCFAfterMutationMatchesFreshCut(t *testing.T) {
	g := gen.DirectedRatings(gen.RatingsConfig{Users: 200, Items: 40, RatingsPerUser: 8, Factors: 4, Noise: 0.1, Seed: 5})
	cfg := Config{Workers: 8, Strategy: "2d"} // more than one fragment, on any machine
	s := New(cfg)
	defer s.Close()
	if err := s.AddGraph("ratings", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, batch := range gen.UpdateStream(g, gen.StreamConfig{Batches: 10, BatchSize: 16, DeleteP: 0.6, Seed: 1}) {
		if _, err := s.Mutate(ctx, "ratings", "cc", "", edgesOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	req := QueryRequest{Graph: "ratings", Program: "cf", NoCache: true}
	got, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := servedState(t, s, "ratings")
	fresh := New(cfg)
	defer fresh.Close()
	if err := fresh.AddGraph("ratings", live); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("cf after 10 batches: RMSE %v, a fresh server's %v", got.Result.(queries.CFResult).RMSE, want.Result.(queries.CFResult).RMSE)
	}
}

// TestServedMissReusesRunScratch: every served miss draws its run scratch
// from RunOnLayout's free list, so a miss reuses it whichever layout it runs
// on.
// Each answer is checked, on a spliced session layout, after a keyword
// reseed and after a broken batch. Then, on PreferentialAttachment(10000, 5),
// the mean nocache sssp miss over 30 cc batches, the miss after a keyword
// reseed, and the miss after a broken batch each allocate at most half of
// the first miss, which fills the free list. It runs under an ID-driven strategy
// (2d) and an edge-driven one (fennel, the default).
func TestServedMissReusesRunScratch(t *testing.T) {
	for _, strategy := range []string{"2d", "fennel"} {
		t.Run(strategy, func(t *testing.T) { servedMissReusesRunScratch(t, strategy) })
	}
}

func servedMissReusesRunScratch(t *testing.T, strategy string) {
	s, gs := newTestServer(t, Config{Workers: 8, Strategy: strategy})
	defer s.Close()
	ctx := context.Background()
	shadow := gs["social"].Clone()
	stream := gen.UpdateStream(gs["social"], gen.StreamConfig{Batches: 5, BatchSize: 16, DeleteP: 0.4, Seed: 1})
	mutate := func(s *Server, name, program, query string, edges []EdgeJSON) error {
		t.Helper()
		_, err := s.Mutate(ctx, name, program, query, edges)
		return err
	}
	miss := func(name string) {
		t.Helper()
		resp, err := s.Query(ctx, QueryRequest{Graph: name, Program: "sssp", Query: "source=0", NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if name == "social" {
			CheckAnswer(t, shadow, "sssp", "source=0", resp.Result)
		}
	}
	step := func(program, query string, edges []EdgeJSON) {
		t.Helper()
		if err := mutate(s, "social", program, query, edges); err != nil {
			t.Fatal(err)
		}
		applyTo(t, shadow, edges)
	}
	inserts := func(batch []gen.Update) []EdgeJSON {
		var out []EdgeJSON
		for _, e := range edgesOf(batch) {
			if !e.Del {
				out = append(out, e)
			}
		}
		return out
	}
	clean := func(i int) []EdgeJSON { return []EdgeJSON{{From: int64(i), To: int64(100 + i), W: 1}} }
	poison := []EdgeJSON{{From: 3, To: 103, W: 1, Label: "poison"}}

	step("cc", "", edgesOf(stream[0]))
	miss("social")
	step("cc", "", edgesOf(stream[1]))
	miss("social")

	// keyword repairs an insert-only batch on its layout and reseeds a mixed
	// one onto a new layout.
	const kw = "k=db,graph bound=4"
	step("keyword", kw, inserts(stream[2]))
	miss("social")
	step("keyword", kw, inserts(stream[3]))
	miss("social")
	step("keyword", kw, edgesOf(stream[4]))
	miss("social")

	// A batch that breaks the session drops its layout; the miss runs on a
	// fresh cut.
	for i := range 2 {
		if err := mutate(s, "road", "server-failing-update", "", clean(i)); err != nil {
			t.Fatal(err)
		}
		miss("road")
	}
	if err := mutate(s, "road", "server-failing-update", "", poison); err == nil {
		t.Fatal("a poisoned batch did not break its session")
	}
	miss("road")

	if raceEnabled {
		t.Skip("sync.Pool drops the pooled scratch under the race detector")
	}
	// Two collections empty every sync.Pool and RunOnLayout's free lists, so
	// the first miss fills them. Then the collector stays off (about 240 MB):
	// two collections between misses would make the later miss a first.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	big := New(Config{Workers: 8, Strategy: strategy})
	defer big.Close()
	g := gen.PreferentialAttachment(10000, 5, 1)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	if err := big.AddGraph("social", g); err != nil {
		t.Fatal(err)
	}
	batches := gen.UpdateStream(g, gen.StreamConfig{Batches: 33, BatchSize: 16, DeleteP: 0.4, Seed: 1})
	// missBytes runs before, then returns what the nocache sssp miss after it
	// allocates.
	missBytes := func(before func()) float64 {
		t.Helper()
		before()
		var pre, post runtime.MemStats
		runtime.ReadMemStats(&pre)
		if _, err := big.Query(ctx, QueryRequest{Graph: "social", Program: "sssp", Query: "source=0", NoCache: true}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&post)
		return float64(post.TotalAlloc - pre.TotalAlloc)
	}
	apply := func(program, query string, edges []EdgeJSON) func() {
		return func() {
			t.Helper()
			if err := mutate(big, "social", program, query, edges); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, sum := missBytes(apply("cc", "", edgesOf(batches[0]))), 0.0
	for _, batch := range batches[1:31] {
		sum += missBytes(apply("cc", "", edgesOf(batch)))
	}
	mean := sum / 30
	apply("keyword", kw, inserts(batches[31]))()
	_, kept := defaultSlot(t, big, "social")
	reseed := missBytes(apply("keyword", kw, edgesOf(batches[32])))
	if _, l := defaultSlot(t, big, "social"); l == nil || l == kept {
		t.Fatal("a mixed keyword batch did not reseed onto a new layout")
	}
	apply("server-failing-update", "", clean(0))()
	broken := missBytes(func() {
		if err := mutate(big, "social", "server-failing-update", "", poison); err == nil {
			t.Fatal("a poisoned batch did not break its session")
		}
		// a cc miss builds the fresh cut, which the sssp miss then shares
		if _, err := big.Query(ctx, QueryRequest{Graph: "social", Program: "cc", NoCache: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("nocache sssp miss: %.2f MB the first, %.2f MB the mean after the next 30 cc batches, %.2f MB after a keyword reseed, %.2f MB after a broken batch",
		first/1e6, mean/1e6, reseed/1e6, broken/1e6)
	for _, c := range []struct {
		after string
		bytes float64
	}{{"a cc batch (mean)", mean}, {"a keyword reseed", reseed}, {"a broken batch", broken}} {
		if c.bytes > first/2 {
			t.Errorf("the miss after %s allocates %.2f MB, over half the first's %.2f MB", c.after, c.bytes/1e6, first/1e6)
		}
	}
}
