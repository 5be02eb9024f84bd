package queries_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/queries"
	"grape/internal/seq"
)

// faultCase is one query class run end to end; run is substrate-agnostic so
// the same closure drives the clean reference and every faulted variant.
type faultCase struct {
	name string
	run  func(opts engine.Options) (any, *metrics.Stats, error)
}

// faultCases mirrors the seven-class equivalence matrix of the wire tests
// (internal/transport/wire_test.go) with smaller graphs: the sweep runs
// every class against several fault plans under -race.
func faultCases() []faultCase {
	ssspG := gen.RoadGrid(16, 16, 1)
	ccG := gen.PreferentialAttachment(300, 3, 2)
	simG := gen.Random(120, 360, 21)
	simLabels := []string{"a", "b", "c"}
	for i, v := range simG.SortedVertices() {
		simG.AddVertex(v, simLabels[i%len(simLabels)])
	}
	simP := graph.New()
	simP.AddVertex(0, "a")
	simP.AddVertex(1, "b")
	simP.AddEdge(0, 1, 1)
	simP.AddEdge(1, 0, 1)
	subG := gen.Random(80, 240, 3)
	subLabels := []string{"x", "y"}
	for i, v := range subG.SortedVertices() {
		subG.AddVertex(v, subLabels[i%len(subLabels)])
	}
	subP := graph.New()
	subP.AddVertex(0, "x")
	subP.AddVertex(1, "y")
	subP.AddEdge(0, 1, 1)
	kwG := gen.PreferentialAttachment(250, 3, 5)
	gen.AttachKeywords(kwG, []string{"db", "graph", "ml"}, 2, 0.15, 31)
	kwQ := queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 12, UseIndex: true}
	cfG := gen.Ratings(gen.RatingsConfig{Users: 40, Items: 12, RatingsPerUser: 6, Factors: 4, Noise: 0.1, Seed: 5})
	cfCfg := seq.DefaultCFConfig()
	cfCfg.Epochs = 3
	triG := gen.Random(100, 400, 7)
	return []faultCase{
		{"sssp", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(engine.Run(context.Background(), ssspG, queries.SSSP{}, queries.SSSPQuery{Source: 0}, opts))
		}},
		{"cc", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(engine.Run(context.Background(), ccG, queries.CC{}, queries.CCQuery{}, opts))
		}},
		{"sim", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(engine.Run(context.Background(), simG, queries.Sim{}, queries.SimQuery{Pattern: simP}, opts))
		}},
		{"subiso", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(queries.RunSubIso(context.Background(), subG, queries.SubIsoQuery{Pattern: subP}, opts))
		}},
		{"keyword", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(engine.Run(context.Background(), kwG, queries.Keyword{}, kwQ, opts))
		}},
		{"cf", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(engine.Run(context.Background(), cfG, queries.CF{}, queries.CFQuery{Cfg: cfCfg}, opts))
		}},
		{"tricount", func(opts engine.Options) (any, *metrics.Stats, error) {
			return wrapAny(queries.RunTriCount(context.Background(), triG, opts))
		}},
	}
}

func wrapAny[R any](res R, stats *metrics.Stats, err error) (any, *metrics.Stats, error) {
	return res, stats, err
}

// checkFaultedRun asserts a faulted-but-recovered run is indistinguishable
// from the clean one: same result bytes and the same superstep schedule,
// message count, and traffic profile — recovery must not leak into any
// deterministic observable.
func checkFaultedRun(t *testing.T, label string, cleanRes, res any, clean, stats *metrics.Stats) {
	t.Helper()
	if !reflect.DeepEqual(cleanRes, res) {
		t.Fatalf("%s: result differs from the failure-free run:\nclean: %v\ngot:   %v", label, cleanRes, res)
	}
	if clean.Supersteps != stats.Supersteps {
		t.Fatalf("%s: supersteps %d, clean run took %d", label, stats.Supersteps, clean.Supersteps)
	}
	if clean.Messages != stats.Messages || clean.Bytes != stats.Bytes {
		t.Fatalf("%s: traffic %d msgs / %d bytes, clean run %d / %d",
			label, stats.Messages, stats.Bytes, clean.Messages, clean.Bytes)
	}
	if !reflect.DeepEqual(clean.WorkPerStep, stats.WorkPerStep) {
		t.Fatalf("%s: work profile differs:\nclean: %v\ngot:   %v", label, clean.WorkPerStep, stats.WorkPerStep)
	}
	if !reflect.DeepEqual(clean.BytesPerStep, stats.BytesPerStep) {
		t.Fatalf("%s: per-step traffic differs:\nclean: %v\ngot:   %v", label, clean.BytesPerStep, stats.BytesPerStep)
	}
}

// TestFaultRecoveryEquivalence kills (or delays) one worker at a planned
// superstep in every query class and asserts the recovered run is
// byte-identical to the failure-free one: same result, same superstep count,
// same message/byte totals and per-step profiles. Deaths must be recorded in
// stats.Recoveries; a delay is a straggler, not a death, and must not be.
func TestFaultRecoveryEquivalence(t *testing.T) {
	const workers = 4
	plans := []struct {
		name   string
		faults []mpi.Fault
		deaths int
	}{
		{"sever-w1-s2", []mpi.Fault{{Step: 2, Worker: 1, Kind: mpi.Sever}}, 1},
		{"drop-w2-s2", []mpi.Fault{{Step: 2, Worker: 2, Kind: mpi.Drop}}, 1},
		{"delay-w0-s2", []mpi.Fault{{Step: 2, Worker: 0, Kind: mpi.Delay, Delay: 2 * time.Millisecond}}, 0},
		{"sever-w3-s3", []mpi.Fault{{Step: 3, Worker: 3, Kind: mpi.Sever}}, 1},
		{"sever-w1-s1", []mpi.Fault{{Step: 1, Worker: 1, Kind: mpi.Sever}}, 1},
	}
	for _, c := range faultCases() {
		t.Run(c.name, func(t *testing.T) {
			cleanRes, clean, err := c.run(engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			for _, p := range plans {
				t.Run(p.name, func(t *testing.T) {
					var ft *mpi.FaultTransport
					res, stats, err := c.run(engine.Options{
						Workers: workers,
						Recover: true,
						Fault: func(tr mpi.Transport) mpi.Transport {
							ft = mpi.NewFaultTransport(tr, p.faults...)
							return ft
						},
					})
					if err != nil {
						t.Fatalf("faulted run: %v", err)
					}
					checkFaultedRun(t, p.name, cleanRes, res, clean, stats)
					// A fault can only strike a run that reaches its
					// superstep (tricount converges in one step, so
					// step-2 plans never fire there).
					canFire := clean.Supersteps >= p.faults[0].Step
					if p.deaths > 0 && canFire {
						if ft.Fired() == 0 {
							t.Fatalf("fault never fired (run took %d supersteps)", stats.Supersteps)
						}
						if len(stats.Recoveries) == 0 {
							t.Fatalf("worker died but stats.Recoveries is empty")
						}
					} else if len(stats.Recoveries) != 0 {
						t.Fatalf("no-death plan triggered recoveries: %+v", stats.Recoveries)
					}
				})
			}
		})
	}
}

// TestFaultWithoutRecoveryFailsClassified: with Options.Recover off, a
// worker death must fail the run with the classified worker-fatal error —
// never hang, never return a partial answer.
func TestFaultWithoutRecoveryFailsClassified(t *testing.T) {
	g := gen.RoadGrid(16, 16, 1)
	_, _, err := engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0},
		engine.Options{
			Workers: 4,
			Fault: func(tr mpi.Transport) mpi.Transport {
				return mpi.NewFaultTransport(tr, mpi.Fault{Step: 2, Worker: 1, Kind: mpi.Sever})
			},
		})
	if err == nil {
		t.Fatal("worker death with recovery disabled did not fail the run")
	}
	var wf *mpi.WorkerFatalError
	if !errors.As(err, &wf) || wf.Worker != 1 {
		t.Fatalf("error not classified worker-fatal for worker 1: %v", err)
	}
	if !errors.Is(err, mpi.ErrInjectedFault) {
		t.Fatalf("error lost the injected-fault sentinel: %v", err)
	}
}

// TestFaultRecoveryMultipleDeaths kills two different workers at different
// supersteps in one run.
func TestFaultRecoveryMultipleDeaths(t *testing.T) {
	g := gen.RoadGrid(16, 16, 1)
	run := func(opts engine.Options) (map[graph.ID]float64, *metrics.Stats, error) {
		return engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0}, opts)
	}
	cleanRes, clean, err := run(engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := run(engine.Options{
		Workers: 4,
		Recover: true,
		Fault: func(tr mpi.Transport) mpi.Transport {
			return mpi.NewFaultTransport(tr,
				mpi.Fault{Step: 2, Worker: 1, Kind: mpi.Sever},
				mpi.Fault{Step: 4, Worker: 3, Kind: mpi.Drop},
			)
		},
	})
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	checkFaultedRun(t, "two deaths", cleanRes, res, clean, stats)
	if len(stats.Recoveries) < 2 {
		t.Fatalf("expected two recoveries, got %+v", stats.Recoveries)
	}
}

// FuzzFaultRecovery derives a single-fault plan from the seed and asserts
// the recovered run matches the failure-free one exactly. A plan can strike
// a worker in a superstep that sends it nothing, so its fault never fires: a
// recovery is required only of a death that happened, and a plan that never
// fired must leave no recovery record.
func FuzzFaultRecovery(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	g := gen.RoadGrid(12, 12, 1)
	run := func(opts engine.Options) (map[graph.ID]float64, *metrics.Stats, error) {
		return engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0}, opts)
	}
	cleanRes, clean, err := run(engine.Options{Workers: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		plan := mpi.Plan(seed, 4, clean.Supersteps)
		var ft *mpi.FaultTransport
		res, stats, err := run(engine.Options{
			Workers: 4,
			Recover: true,
			Fault: func(tr mpi.Transport) mpi.Transport {
				ft = mpi.NewFaultTransport(tr, plan...)
				return ft
			},
		})
		if err != nil {
			t.Fatalf("plan %+v: %v", plan, err)
		}
		if !reflect.DeepEqual(cleanRes, res) {
			t.Fatalf("plan %+v: result differs from the failure-free run", plan)
		}
		if clean.Supersteps != stats.Supersteps || clean.Bytes != stats.Bytes || clean.Messages != stats.Messages {
			t.Fatalf("plan %+v: schedule diverged: %d steps / %d msgs / %d bytes, clean %d / %d / %d",
				plan, stats.Supersteps, stats.Messages, stats.Bytes, clean.Supersteps, clean.Messages, clean.Bytes)
		}
		switch fired := ft.Fired(); {
		case fired == 0 && len(stats.Recoveries) > 0:
			t.Fatalf("plan %+v: never fired, yet %d recoveries recorded", plan, len(stats.Recoveries))
		case fired > 0 && plan[0].Kind != mpi.Delay && len(stats.Recoveries) == 0:
			t.Fatalf("plan %+v: death without recovery record", plan)
		}
	})
}
