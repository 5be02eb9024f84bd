package queries

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/seq"
)

// TestResidentConcurrentPrograms is the serving-layer safety argument made
// executable: several different programs run simultaneously over ONE shared
// frozen layout through the resident-run entry point, each result asserted
// equal to a solo engine.Run. CI runs the whole test suite under -race, so
// any write to the shared fragments (or unsynchronized lazy cache) fails
// loudly here.
func TestResidentConcurrentPrograms(t *testing.T) {
	// one graph every hops-0 program can answer: labeled person/product
	// commerce topology with keyword props sprinkled on top
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 300, Products: 10, Follows: 4, AdoptP: 0.9, Seed: 11})
	gen.AttachKeywords(g, []string{"db", "graph"}, 2, 0.1, 11)
	const workers = 6
	opts := engine.Options{Workers: workers, Strategy: partition.Hash{}}

	layout, err := engine.BuildLayout(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	progs := []struct {
		program, query string
	}{
		{"sssp", "source=0"},
		{"cc", ""},
		{"sim", "pattern=follows-recommend"},
		{"keyword", "k=db,graph bound=6"},
	}

	// solo runs on a private layout are the reference
	want := map[string]any{}
	for _, p := range progs {
		e, err := engine.Lookup(p.program)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.Run(context.Background(), g, opts, p.query)
		if err != nil {
			t.Fatal(err)
		}
		want[p.program] = res
	}

	// one pooled runner per program, shared by several goroutines each —
	// exercises both cross-program concurrency on the layout and scratch
	// pooling within a runner
	runners := map[string]engine.ResidentRunner{}
	parsed := map[string]engine.ParsedQuery{}
	for _, p := range progs {
		e, _ := engine.Lookup(p.program)
		pq, err := e.Parse(p.query)
		if err != nil {
			t.Fatal(err)
		}
		if pq.Hops != 0 {
			t.Fatalf("%s needs hops=%d, cannot share the hops-0 layout", p.program, pq.Hops)
		}
		r, err := e.Resident(layout, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runners[p.program] = r
		parsed[p.program] = pq
	}

	const goroutinesPerProgram = 3
	const runsPerGoroutine = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(progs)*goroutinesPerProgram)
	for _, p := range progs {
		for i := 0; i < goroutinesPerProgram; i++ {
			wg.Add(1)
			go func(program string) {
				defer wg.Done()
				for j := 0; j < runsPerGoroutine; j++ {
					res, stats, err := runners[program].RunParsed(context.Background(), parsed[program])
					if err != nil {
						errs <- fmt.Errorf("%s: %w", program, err)
						return
					}
					if stats.Workers != workers {
						errs <- fmt.Errorf("%s: ran on %d workers, want %d", program, stats.Workers, workers)
						return
					}
					if !reflect.DeepEqual(res, want[program]) {
						errs <- fmt.Errorf("%s: concurrent resident result differs from solo engine.Run", program)
						return
					}
				}
			}(p.program)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResidentExpandedLayouts runs the locality-bounded programs (their
// fragments are d-hop expanded) concurrently over a shared expanded layout.
func TestResidentExpandedLayouts(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 300, Products: 10, Follows: 4, AdoptP: 0.9, Seed: 11})
	opts := engine.Options{Workers: 4, Strategy: partition.Hash{}}

	for _, p := range []struct {
		program, query string
	}{
		{"subiso", "pattern=follows-recommend max=100"},
		{"tricount", ""},
	} {
		t.Run(p.program, func(t *testing.T) {
			e, err := engine.Lookup(p.program)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := e.Parse(p.query)
			if err != nil {
				t.Fatal(err)
			}
			if pq.Hops == 0 {
				t.Fatalf("%s should need expanded fragments", p.program)
			}
			expOpts := opts
			expOpts.ExpandHops = pq.Hops
			layout, err := engine.BuildLayout(g, expOpts)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := e.Run(context.Background(), g, opts, p.query)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Resident(layout, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, _, err := r.RunParsed(context.Background(), pq)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res, want) {
						errs <- fmt.Errorf("concurrent resident result differs from solo run")
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestParseCanonicalization pins the shared parser's canonical forms — the
// cache-key contract of the serving layer.
func TestParseCanonicalization(t *testing.T) {
	cases := []struct {
		program, query, canonical string
		hops                      int
	}{
		{"sssp", "  source=7 ", "source=7", 0},
		{"cc", "", "", 0},
		{"cc", "ignored=yes", "", 0},
		{"sim", "pattern=triangle", "pattern=triangle", 0},
		{"subiso", "pattern=triangle", "pattern=triangle", 1},
		{"subiso", "max=5 pattern=triangle", "pattern=triangle max=5", 1},
		{"keyword", "bound=4.0 k=db,graph", "k=db,graph bound=4", 0},
		{"keyword", "k=db bound=2 noindex=1", "k=db bound=2 noindex=1", 0},
		{"cf", "", "epochs=20 k=8 lr=0.02 reg=0.05", 0},
		{"cf", "epochs=20 lr=0.020", "epochs=20 k=8 lr=0.02 reg=0.05", 0},
		{"tricount", "", "", 1},
	}
	for _, c := range cases {
		pq, err := Parse(c.program, c.query)
		if err != nil {
			t.Fatalf("%s %q: %v", c.program, c.query, err)
		}
		if pq.Canonical != c.canonical {
			t.Errorf("%s %q: canonical %q, want %q", c.program, c.query, pq.Canonical, c.canonical)
		}
		if pq.Hops != c.hops {
			t.Errorf("%s %q: hops %d, want %d", c.program, c.query, pq.Hops, c.hops)
		}
		if pq.Program != c.program {
			t.Errorf("%s: parsed program %q", c.program, pq.Program)
		}
	}
	if _, err := Parse("sssp", "source=abc"); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := Parse("nope", ""); err == nil {
		t.Error("unknown program accepted")
	}
}

// warmSSSPRuns returns two sssp runs from vertex 0 over the resident road
// layout (96×96 grid, 8 spatial fragments — the benchmark's): one through
// RunOnLayout, one through the sssp entry's resident runner. The pooled
// scratch is filled and collections are off until the test ends, since a
// collection would empty the pool.
func warmSSSPRuns(t *testing.T) (oneShot, resident func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled scratch under the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	layout, err := engine.BuildLayout(gen.RoadGrid(96, 96, 1), engine.Options{Workers: 8, Strategy: partition.TwoD{Cols: 96}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.Lookup("sssp")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Parse("source=0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Resident(layout, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneShot = func() {
		if _, _, err := engine.RunOnLayout(context.Background(), layout, SSSP{}, SSSPQuery{Source: 0}, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	resident = func() {
		if _, _, err := r.RunParsed(context.Background(), pq); err != nil {
			t.Fatal(err)
		}
	}
	oneShot() // fill the pooled scratch
	return oneShot, resident
}

// TestRunOnLayoutAllocationBudget: one warmed sssp run over the road layout
// of warmSSSPRuns allocates 204 objects once RunOnLayout's pool holds its
// contexts and fold state; binding fresh contexts and fold arrays to every
// run costs 528. What is left is per run by design — goroutines, the bus,
// stats rows, the answer.
func TestRunOnLayoutAllocationBudget(t *testing.T) {
	oneShot, _ := warmSSSPRuns(t)
	if got := testing.AllocsPerRun(20, oneShot); got > 240 {
		t.Fatalf("a RunOnLayout sssp run allocates %.0f objects, budget 240", got)
	}
}

// TestResidentRunAllocationBudget: a run through the sssp entry's resident
// runner, which calls RunOnLayout, stays within the same budget and
// allocates what a direct RunOnLayout run does: both draw from one pool.
func TestResidentRunAllocationBudget(t *testing.T) {
	oneShot, resident := warmSSSPRuns(t)
	direct, viaEntry := testing.AllocsPerRun(20, oneShot), testing.AllocsPerRun(20, resident)
	t.Logf("a warmed sssp run allocates %.0f objects through RunOnLayout, %.0f through Entry.Resident", direct, viaEntry)
	if viaEntry > 240 {
		t.Fatalf("a resident sssp run allocates %.0f objects, budget 240", viaEntry)
	}
	if viaEntry != direct {
		t.Fatalf("a resident sssp run allocates %.0f objects, RunOnLayout %.0f: both draw from one pool", viaEntry, direct)
	}
}

// TestSSSPAssembleSizedByReach: the answer map is sized by what the source
// reached, not by the layout. A warmed run from an isolated vertex over a
// 25,601-vertex layout answers one entry; sized for every inner vertex, its
// map alone took about 577 KB.
func TestSSSPAssembleSizedByReach(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled scratch under the race detector")
	}
	g := gen.RoadGrid(160, 160, 1)
	const iso = graph.ID(1 << 20)
	g.AddVertex(iso, "")
	layout, err := engine.BuildLayout(g.Freeze(), engine.Options{Workers: 4, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, _, err := engine.RunOnLayout(context.Background(), layout, SSSP{}, SSSPQuery{Source: iso}, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[graph.ID]float64{iso: 0}; !reflect.DeepEqual(res, want) {
			t.Fatalf("sssp from an isolated vertex answered %d entries, want %v", len(res), want)
		}
	}
	// One P and no collection, so the warmed scratch stays in the pool slot
	// the next run takes it from.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // fill the pooled scratch
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3
	t.Logf("a one-entry sssp run allocates %.1f KB", kb)
	if kb >= 64 {
		t.Fatalf("a one-entry sssp run allocates %.0f KB, budget 64", kb)
	}
}

// TestResidentRefusesDeeperQuery: a layout records the expansion depth it was
// cut with, and a resident runner refuses a query that needs more. Subiso on
// a hops-0 cut of the commerce graph would otherwise answer short, without an
// error: only the matches that happen to fall inside one fragment.
func TestResidentRefusesDeeperQuery(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 2000, Products: 20, Follows: 4, AdoptP: 0.9, Seed: 1})
	opts := engine.Options{Workers: 8, Strategy: partition.Hash{}}
	e, err := engine.Lookup("subiso")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Parse("pattern=follows-recommend")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := engine.BuildLayout(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Hops != 0 {
		t.Fatalf("a plain cut records %d hops, want 0", flat.Hops)
	}
	r, err := e.Resident(flat, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := r.RunParsed(context.Background(), pq); err == nil {
		t.Fatalf("subiso (hops %d) on a hops-0 layout answered %d matches, want an error", pq.Hops, len(res.([]seq.Match)))
	}

	expOpts := opts
	expOpts.ExpandHops = pq.Hops
	deep, err := engine.BuildLayout(g, expOpts)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Hops != pq.Hops {
		t.Fatalf("an expanded cut records %d hops, want %d", deep.Hops, pq.Hops)
	}
	if r, err = e.Resident(deep, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.RunParsed(context.Background(), pq)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Run(context.Background(), g, opts, "pattern=follows-recommend")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subiso on a hops-%d layout: %d matches, engine.Run %d", pq.Hops, len(got.([]seq.Match)), len(want.([]seq.Match)))
	}
}

// TestResidentSurvivesSessionBatches pins the contract a server relies on
// when it answers misses on a session's layout: runs there stay valid while
// the session splices that layout, pooled scratch and all. One runner per
// class is built on the session's layout and kept; after each of 50 mixed
// 16-edge batches it must answer with the supersteps, messages and bytes of
// a runner built fresh on the same layout, and both as internal/seq does on
// a shadow graph. Keyword reseeds a mixed batch onto a new layout, where the
// kept runner is rebuilt; every other keyword batch is cut to its
// insertions, which it repairs on the layout it has.
func TestResidentSurvivesSessionBatches(t *testing.T) {
	road := gen.RoadGrid(32, 32, 1)
	social := gen.PreferentialAttachment(3000, 4, 1)
	gen.AttachKeywords(social, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	social.Freeze()
	cases := []struct {
		program, query string
		g              *graph.Graph
		insertOnly     func(b int) bool
	}{
		{"sssp", "source=0", road, nil},
		{"cc", "", social, nil},
		{"keyword", "k=db,graph bound=4", social, func(b int) bool { return b%2 == 1 }},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.program, func(t *testing.T) {
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := e.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			sess, _, _, err := e.Session(ctx, c.g, engine.Options{Workers: 8, Strategy: partition.TwoD{}}, pq)
			if err != nil {
				t.Fatal(err)
			}
			layout := sess.Layout()
			kept, err := e.Resident(layout, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shadow, reused := c.g.Clone(), 0
			for b, batch := range gen.UpdateStream(c.g, gen.StreamConfig{Batches: 50, BatchSize: 16, DeleteP: 0.4, Seed: 1}) {
				var ups []engine.EdgeUpdate
				for _, u := range batch {
					if u.Del && c.insertOnly != nil && c.insertOnly(b) {
						continue
					}
					ups = append(ups, engine.EdgeUpdate{From: u.From, To: u.To, W: u.W, Label: u.Label, Del: u.Del})
				}
				applyShadow(t, shadow, ups)
				if _, _, err := sess.Update(ctx, ups); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				if l := sess.Layout(); l != layout {
					layout = l
					if kept, err = e.Resident(layout, engine.Options{}); err != nil {
						t.Fatal(err)
					}
				} else {
					reused++
				}
				fresh, err := e.Resident(layout, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, gst, err := kept.RunParsed(ctx, pq)
				if err != nil {
					t.Fatalf("batch %d: kept runner: %v", b, err)
				}
				want, wst, err := fresh.RunParsed(ctx, pq)
				if err != nil {
					t.Fatalf("batch %d: fresh runner: %v", b, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: the kept runner answers differently from a fresh one", b)
				}
				if gst.Supersteps != wst.Supersteps || gst.Messages != wst.Messages || gst.Bytes != wst.Bytes {
					t.Fatalf("batch %d: kept runner %d supersteps %d messages %d bytes, fresh %d / %d / %d",
						b, gst.Supersteps, gst.Messages, gst.Bytes, wst.Supersteps, wst.Messages, wst.Bytes)
				}
				if err := e.Check(shadow, pq, got); err != nil {
					t.Fatalf("batch %d: the kept runner's answer: %v", b, err)
				}
			}
			if reused == 0 {
				t.Fatal("no batch kept the session's layout")
			}
			t.Logf("%d of 50 batches kept the layout and its runner", reused)
		})
	}
}
