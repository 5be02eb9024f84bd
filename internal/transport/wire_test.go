package transport_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/queries"
	"grape/internal/seq"
	"grape/internal/transport"
)

// startWorkers brings up n in-process workers on real TCP sockets: each
// dials the coordinator in its own goroutine and serves via
// engine.ServeWorker, exactly the code path cmd/grape-worker runs. The
// returned finish func must be called after the run; it tears the transport
// down and fails the test if any worker exited uncleanly.
func startWorkers(t *testing.T, n int) (*transport.Coordinator, func()) {
	t.Helper()
	return startFleet(t, n, -1, plainLink)
}

// runBoth executes run twice — on the in-process bus and over the socket
// transport with nWorkers separate worker loops — and returns both results
// with their stats.
func runBoth[R any](t *testing.T, nWorkers int, run func(opts engine.Options) (R, *metrics.Stats, error)) (busRes, wireRes R, busStats, wireStats *metrics.Stats) {
	t.Helper()
	busRes, busStats, err := run(engine.Options{Workers: nWorkers})
	if err != nil {
		t.Fatalf("bus run: %v", err)
	}
	tr, finish := startWorkers(t, nWorkers)
	defer finish()
	wireRes, wireStats, err = run(engine.Options{Workers: nWorkers, Transport: tr})
	if err != nil {
		t.Fatalf("wire run: %v", err)
	}
	return busRes, wireRes, busStats, wireStats
}

func checkParity[R any](t *testing.T, busRes, wireRes R, busStats, wireStats *metrics.Stats) {
	t.Helper()
	if !reflect.DeepEqual(busRes, wireRes) {
		t.Fatalf("results differ between bus and wire:\nbus:  %v\nwire: %v", busRes, wireRes)
	}
	if busStats.Supersteps != wireStats.Supersteps {
		t.Fatalf("superstep counts differ: bus %d, wire %d", busStats.Supersteps, wireStats.Supersteps)
	}
	if !reflect.DeepEqual(busStats.WorkPerStep, wireStats.WorkPerStep) {
		t.Fatalf("work profiles differ: bus %v, wire %v", busStats.WorkPerStep, wireStats.WorkPerStep)
	}
	if wireStats.Transport != "wire" {
		t.Fatalf("wire stats not marked: Transport = %q", wireStats.Transport)
	}
	if busStats.Transport != "" {
		t.Fatalf("bus stats marked as wire: Transport = %q", busStats.Transport)
	}
}

// TestWireMatchesBus runs every registered wire program over the socket
// transport and asserts results, superstep counts and work profiles are
// identical to the in-process bus — the engine's superstep schedule does not
// depend on the substrate.
func TestWireMatchesBus(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		g := gen.RoadGrid(24, 24, 1)
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) (map[graph.ID]float64, *metrics.Stats, error) {
			return engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0}, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
		want := seq.Dijkstra(g, 0)
		if !reflect.DeepEqual(busRes, want) {
			t.Fatalf("distances differ from sequential ground truth")
		}
	})
	t.Run("cc", func(t *testing.T) {
		g := gen.PreferentialAttachment(800, 3, 2)
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) (map[graph.ID]graph.ID, *metrics.Stats, error) {
			return engine.Run(context.Background(), g, queries.CC{}, queries.CCQuery{}, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
		if want := seq.Components(g); !reflect.DeepEqual(busRes, want) {
			t.Fatalf("labels differ from sequential ground truth")
		}
	})
	t.Run("sim", func(t *testing.T) {
		g := gen.Random(150, 450, 21)
		labels := []string{"a", "b", "c"}
		for i, v := range g.SortedVertices() {
			g.AddVertex(v, labels[i%len(labels)])
		}
		p := graph.New()
		p.AddVertex(0, "a")
		p.AddVertex(1, "b")
		p.AddEdge(0, 1, 1)
		p.AddEdge(1, 0, 1)
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) (queries.SimResult, *metrics.Stats, error) {
			return engine.Run(context.Background(), g, queries.Sim{}, queries.SimQuery{Pattern: p}, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
	})
	t.Run("subiso", func(t *testing.T) {
		g := gen.Random(80, 240, 3)
		labels := []string{"x", "y"}
		for i, v := range g.SortedVertices() {
			g.AddVertex(v, labels[i%len(labels)])
		}
		p := graph.New()
		p.AddVertex(0, "x")
		p.AddVertex(1, "y")
		p.AddEdge(0, 1, 1)
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) ([]seq.Match, *metrics.Stats, error) {
			return queries.RunSubIso(context.Background(), g, queries.SubIsoQuery{Pattern: p}, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
	})
	t.Run("keyword", func(t *testing.T) {
		g := gen.PreferentialAttachment(400, 3, 5)
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.15, 31)
		q := queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 12, UseIndex: true}
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) ([]seq.KeywordMatch, *metrics.Stats, error) {
			return engine.Run(context.Background(), g, queries.Keyword{}, q, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
	})
	t.Run("cf", func(t *testing.T) {
		g := gen.Ratings(gen.RatingsConfig{Users: 60, Items: 15, RatingsPerUser: 6, Factors: 4, Noise: 0.1, Seed: 5})
		cfg := seq.DefaultCFConfig()
		cfg.Epochs = 4
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) (queries.CFResult, *metrics.Stats, error) {
			return engine.Run(context.Background(), g, queries.CF{}, queries.CFQuery{Cfg: cfg}, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
	})
	t.Run("tricount", func(t *testing.T) {
		g := gen.Random(120, 480, 7)
		busRes, wireRes, b, w := runBoth(t, 4, func(opts engine.Options) (queries.TriCountResult, *metrics.Stats, error) {
			return queries.RunTriCount(context.Background(), g, opts)
		})
		checkParity(t, busRes, wireRes, b, w)
		if want := queries.SeqTriangles(g); busRes.Total != want {
			t.Fatalf("triangle count %d differs from sequential %d", busRes.Total, want)
		}
	})
}

// recordingTransport wraps a Coordinator and logs every envelope that
// crosses it, so tests can audit the engine's byte metering against the
// frames themselves. It logs copies: a sent frame is the engine's to
// overwrite once Send returns, a received one the transport's once released.
type recordingTransport struct {
	*transport.Coordinator
	mu   sync.Mutex
	sent []mpi.Envelope
	recv []mpi.Envelope
}

func (r *recordingTransport) Send(e mpi.Envelope) {
	r.Coordinator.Send(e)
	e.Frame = bytes.Clone(e.Frame)
	r.mu.Lock()
	r.sent = append(r.sent, e)
	r.mu.Unlock()
}

func (r *recordingTransport) Recv(ctx context.Context, party int) (mpi.Envelope, error) {
	e, err := r.Coordinator.Recv(ctx, party)
	if err != nil {
		return e, err
	}
	kept := e
	kept.Frame = bytes.Clone(e.Frame)
	r.mu.Lock()
	r.recv = append(r.recv, kept)
	r.mu.Unlock()
	return e, nil
}

// TestWireBytesAreEncodedLengths audits the satellite requirement that byte
// counters under a wire transport come from actual encoded lengths: every
// data envelope's Size must equal the re-encoded length of its decoded
// update batch, and the run's total must be exactly the sum of those sizes —
// no bus estimates anywhere.
func TestWireBytesAreEncodedLengths(t *testing.T) {
	g := gen.RoadGrid(16, 16, 1)
	inner, finish := startWorkers(t, 4)
	defer finish()
	rec := &recordingTransport{Coordinator: inner}
	res, stats, err := engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{Workers: 4, Transport: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.NumVertices() {
		t.Fatalf("unexpected result size %d", len(res))
	}
	codec := engine.ValueCodec[float64](0)
	var total int64
	// Coordinator → worker: IncEval command frames carry a kind byte, then
	// the update batch; Size must equal the batch's encoded length.
	for _, e := range rec.sent {
		if e.Size == 0 {
			continue
		}
		total += int64(e.Size)
		pos := 1
		ups := updates(t, codec, e.Frame, &pos, nil)
		if used := pos - 1; used != e.Size {
			t.Fatalf("sent envelope Size %d != encoded update length %d", e.Size, used)
		}
		if got := len(refUpdates(codec, nil, ups, byID)); got != e.Size {
			t.Fatalf("re-encoded length %d != envelope Size %d", got, e.Size)
		}
	}
	// Worker → coordinator: reply frames start with the change batch; the
	// final 4 envelopes are the assemble-phase partial results, whose Size
	// is the blob length.
	if len(rec.recv) < 4 {
		t.Fatalf("expected at least 4 received envelopes, got %d", len(rec.recv))
	}
	replies, partials := rec.recv[:len(rec.recv)-4], rec.recv[len(rec.recv)-4:]
	for _, e := range replies {
		if e.Size == 0 {
			continue
		}
		total += int64(e.Size)
		pos := 0
		ups := updates(t, codec, e.Frame, &pos, nil)
		if pos != e.Size {
			t.Fatalf("received envelope Size %d != encoded change length %d", e.Size, pos)
		}
		if got := len(refUpdates(codec, nil, ups, byID)); got != e.Size {
			t.Fatalf("re-encoded length %d != envelope Size %d", got, e.Size)
		}
	}
	for _, e := range partials {
		total += int64(e.Size)
		blobLen, n := binary.Uvarint(e.Frame[1:])
		if e.Frame[0] != 1 || n <= 0 || int(blobLen) != e.Size || 1+n+int(blobLen) != len(e.Frame) {
			t.Fatalf("partial frame Size %d does not match its blob length %d", e.Size, blobLen)
		}
	}
	if stats.Bytes != total {
		t.Fatalf("stats.Bytes = %d, sum of encoded envelope sizes = %d", stats.Bytes, total)
	}
}

// TestWorkerErrorPropagates ships a PEval failure (a pattern beyond Sim's
// 64-vertex limit) across the wire and expects the coordinator to fail the
// run with the worker's message.
func TestWorkerErrorPropagates(t *testing.T) {
	g := gen.Random(60, 120, 1)
	p := graph.New()
	for i := 0; i < 65; i++ {
		p.AddVertex(graph.ID(i), "a")
	}
	tr, finish := startWorkers(t, 2)
	defer finish()
	_, _, err := engine.Run(context.Background(), g, queries.Sim{}, queries.SimQuery{Pattern: p}, engine.Options{Workers: 2, Transport: tr})
	if err == nil || !strings.Contains(err.Error(), "max 64") {
		t.Fatalf("expected the worker's PEval error, got: %v", err)
	}
}

// fakeWire pretends to be a wire transport so the engine's WireProgram check
// runs; it must never be reached.
type fakeWire struct{ n int }

func (f fakeWire) Workers() int                                    { return f.n }
func (f fakeWire) Send(mpi.Envelope)                               { panic("unreachable") }
func (f fakeWire) Recv(context.Context, int) (mpi.Envelope, error) { panic("unreachable") }
func (f fakeWire) Release([]byte)                                  {}
func (f fakeWire) Messages() int64                                 { return 0 }
func (f fakeWire) Bytes() int64                                    { return 0 }
func (f fakeWire) AddTraffic(_, _ int64)                           {}
func (f fakeWire) Wire() bool                                      { return true }

// plainProgram is a PIE program without a query encoding.
type plainProgram struct{}

func (plainProgram) Name() string                                                    { return "plain" }
func (plainProgram) Spec() engine.VarSpec[float64]                                   { return queries.SSSP{}.Spec() }
func (plainProgram) PEval(q queries.SSSPQuery, ctx *engine.Context[float64]) error   { return nil }
func (plainProgram) IncEval(q queries.SSSPQuery, ctx *engine.Context[float64]) error { return nil }
func (plainProgram) Assemble(q queries.SSSPQuery, ctxs []*engine.Context[float64]) (map[graph.ID]float64, error) {
	return nil, nil
}

func TestNoWireSupportFailsFast(t *testing.T) {
	g := gen.RoadGrid(4, 4, 1)
	_, _, err := engine.Run(context.Background(), g, plainProgram{}, queries.SSSPQuery{Source: 0}, engine.Options{Workers: 2, Transport: fakeWire{n: 2}})
	if !errors.Is(err, engine.ErrNoWireSupport) {
		t.Fatalf("expected ErrNoWireSupport, got: %v", err)
	}
}

// declaredSSSP is sssp declaring only what its value type cannot tell the
// engine: Default, Agg and Less.
type declaredSSSP struct{ queries.SSSP }

func (declaredSSSP) Name() string { return "sssp-declared" }

func (declaredSSSP) Spec() engine.VarSpec[float64] {
	return engine.VarSpec[float64]{Default: seq.Inf, Agg: math.Min, Less: func(a, b float64) bool { return a < b }}
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[queries.SSSPQuery, float64, map[graph.ID]float64]{
		Prog:      declaredSSSP{},
		Parse:     func(string) (queries.SSSPQuery, error) { return queries.SSSPQuery{}, nil },
		Canonical: func(queries.SSSPQuery) string { return "" },
	}))
}

// TestThreeFieldDeclarationRunsLikeSSSP: a program that declares Default, Agg
// and Less and nothing else runs on the bus and on the wire, with sssp's
// answer and exactly sssp's counters on each substrate.
func TestThreeFieldDeclarationRunsLikeSSSP(t *testing.T) {
	g := gen.RoadGrid(12, 12, 1)
	q := queries.SSSPQuery{Source: 0}
	both := func(prog engine.Program[queries.SSSPQuery, float64, map[graph.ID]float64]) []any {
		busRes, wireRes, bus, wire := runBoth(t, 4, func(opts engine.Options) (map[graph.ID]float64, *metrics.Stats, error) {
			return engine.Run(context.Background(), g, prog, q, opts)
		})
		counters := func(s *metrics.Stats) []any { return []any{s.Supersteps, s.Messages, s.Bytes, s.BytesPerStep} }
		return []any{busRes, wireRes, counters(bus), counters(wire)}
	}
	if got, want := both(declaredSSSP{}), both(queries.SSSP{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("bus and wire answers and counters (supersteps, messages, bytes, per step) differ from sssp's:\n%v\n%v", got[2:], want[2:])
	}
}
