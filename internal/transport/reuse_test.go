package transport_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/transport"
)

// TestWorkerRunReusesMemory: a second fleet run on the same layout reuses
// what the first one's workers gave back — the fragment frames their setup
// frames arrived in and the run scratch (context, command batch, reply
// buffer) — so it allocates less than half the bytes the first did. Tricount
// at hops 1 ships the largest fragment frames of any class.
func TestWorkerRunReusesMemory(t *testing.T) {
	if transport.RaceDetector {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const workers = 4
	g := gen.Random(12000, 36000, 7)
	layout, err := engine.BuildLayout(g, engine.Options{Workers: workers, Strategy: partition.Hash{}, ExpandHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, finish := startFleet(t, workers, -1, plainLink)
		_, _, err := engine.Run(context.Background(), g, queries.TriCount{}, queries.TriCountQuery{}, engine.Options{Workers: workers, Layout: layout, Transport: tr})
		finish()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection between the runs would empty the pools
	// One P, one per-P pool cache: with more, a buffer put back on one P can
	// sit in that P's private slot, where a Get on another never looks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first := run()
	second := run()
	t.Logf("first run allocated %d bytes, second %d", first, second)
	if second*2 >= first {
		t.Fatalf("second run allocated %d bytes, first %d: want less than half", second, first)
	}
}

// auditLink audits a worker's releases against the frames its link
// delivered. A release must name a frame the worker holds — delivered and not
// yet released — or it hands one buffer to two readers; the setup frame, the
// first delivered, goes back last, once nothing is left to read.
type auditLink struct {
	*transport.WorkerConn
	held       map[*byte]int // a held frame's first byte -> its delivery
	deliveries []delivery
	faults     []string
}

type delivery struct {
	adopt    bool
	releases int
}

func (l *auditLink) Recv() (mpi.Envelope, error) {
	env, err := l.WorkerConn.Recv()
	if len(env.Frame) == 0 {
		return env, err
	}
	if len(l.deliveries) > 0 && l.deliveries[0].releases > 0 {
		l.faults = append(l.faults, "a frame arrived after the setup frame was released")
	}
	p := unsafe.SliceData(env.Frame)
	if _, ok := l.held[p]; ok {
		l.faults = append(l.faults, "the link delivered a buffer the worker still holds")
	}
	l.held[p] = len(l.deliveries)
	// 6 is the adopt command; a setup frame starts with its program's name
	l.deliveries = append(l.deliveries, delivery{adopt: len(l.deliveries) > 0 && env.Frame[0] == 6})
	return env, err
}

func (l *auditLink) Release(frame []byte) {
	p := unsafe.SliceData(frame)
	if i, ok := l.held[p]; ok {
		l.deliveries[i].releases++
		delete(l.held, p)
	} else {
		l.faults = append(l.faults, fmt.Sprintf("released a %d-byte frame the worker does not hold", len(frame)))
	}
	l.WorkerConn.Release(frame)
}

// TestSetupFrameReleasedOnce: every worker releases its setup frame exactly
// once, after the run that lives in it, on all seven classes; through a
// planned worker death with recovery, the adopter releases the adopt frame
// exactly once too. No frame is released twice.
func TestSetupFrameReleasedOnce(t *testing.T) {
	const workers = 4
	for _, c := range sevenClasses() {
		t.Run(c.name, func(t *testing.T) {
			_, bus, err := c.run(engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("bus run: %v", err)
			}
			for _, recover := range []bool{false, true} {
				opts, orphan := engine.Options{Workers: workers}, -1
				if recover {
					opts.Recover, opts.Fault, orphan = true, severAt(min(2, bus.Supersteps)), 1
				}
				var mu sync.Mutex
				var links []*auditLink
				tr, finish := startFleet(t, workers, orphan, func(c *transport.WorkerConn) engine.WorkerLink {
					l := &auditLink{WorkerConn: c, held: map[*byte]int{}}
					mu.Lock()
					links = append(links, l)
					mu.Unlock()
					return l
				})
				opts.Transport = tr
				_, _, err := c.run(opts)
				finish()
				if err != nil {
					t.Fatalf("recover=%v: %v", recover, err)
				}
				adopted := 0
				for _, l := range links {
					for _, f := range l.faults {
						t.Errorf("recover=%v, worker %d: %s", recover, l.Index(), f)
					}
					if n := l.deliveries[0].releases; n != 1 {
						t.Errorf("recover=%v, worker %d: setup frame released %d times, want 1", recover, l.Index(), n)
					}
					for _, d := range l.deliveries[1:] {
						if d.adopt {
							adopted++
							if d.releases != 1 {
								t.Errorf("recover=%v, worker %d: adopt frame released %d times, want 1", recover, l.Index(), d.releases)
							}
						}
					}
				}
				if want := map[bool]int{false: 0, true: 1}[recover]; adopted != want {
					t.Errorf("recover=%v: %d adopt frames delivered, want %d", recover, adopted, want)
				}
			}
		})
	}
}

// TestWireCoordinatorReusesRunMemory: a second wire run of a program takes
// the coordinator's contexts, fold state and reply batches from the scratch
// the first one gave back. The worker is a grape-worker process, so this
// process allocates the coordinator's side alone. A cc run first warms what
// every run over the layout shares — the transport's frame buffers, the setup
// frame's staging — and then a first sssp run pays for its run memory, which a
// second must not. A run that bound fresh contexts would allocate their dense
// arrays again, 13 bytes per fragment vertex; the second run must allocate
// less than the first by half of that at least. SSSP from the head of one of
// 20,000 disjoint edges keeps every later frame and the answer small, so
// nothing else sets the two runs apart. One worker, because a run that stages
// several setup frames more concurrently than any run before it grows one
// more staging buffer.
func TestWireCoordinatorReusesRunMemory(t *testing.T) {
	if transport.RaceDetector {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	if testing.Short() {
		t.Skip("builds a binary and spawns a process")
	}
	bin := buildWorkerBin(t)
	const workers = 1
	b := graph.NewBuilder()
	for v := graph.ID(0); v < 40000; v += 2 {
		b.AddEdge(v, v+1, 1)
	}
	g := b.Graph()
	sink := graph.ID(1)
	layout, err := engine.BuildLayout(g, engine.Options{Workers: workers, Strategy: partition.Range{}})
	if err != nil {
		t.Fatal(err)
	}
	ctxBytes := uint64(0)
	for _, f := range layout.Fragments {
		ctxBytes += 13 * uint64(f.G.NumVertices())
	}
	run := func(sssp bool) uint64 {
		tr, _ := spawnFleet(t, bin, workers)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if sssp {
			res, _, err := engine.RunOnLayout(context.Background(), layout, queries.SSSP{}, queries.SSSPQuery{Source: sink}, engine.Options{Transport: tr})
			if err == nil && (len(res) != 1 || res[sink] != 0) {
				t.Fatalf("sssp from an isolated vertex answered %v", res)
			}
		} else {
			_, _, err = engine.RunOnLayout(context.Background(), layout, queries.CC{}, queries.CCQuery{}, engine.Options{Transport: tr})
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection between the runs would empty the pools
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // see TestWorkerRunReusesMemory
	run(false)
	first := run(true)
	second := run(true)
	t.Logf("first sssp run allocated %d bytes, second %d; the contexts' arrays are %d", first, second, ctxBytes)
	if second+ctxBytes/2 > first {
		t.Fatalf("second run allocated %d bytes, first %d: want less by half the contexts' %d at least", second, first, ctxBytes)
	}
}
