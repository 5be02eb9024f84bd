package transport_test

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/transport"
)

// The wire twin of internal/engine's cancellation tests: a deliberately
// endless PIE program runs across real sockets with each worker served by
// engine.ServeWorker (the exact cmd/grape-worker code path), the coordinator
// context is cancelled during superstep k, and the test asserts the run
// fails with the context error, every worker observes the abort frame
// (ServeWorker returns engine.ErrAborted), no worker computes past it, and
// a subsequent run over the same layout is unaffected.

// spinQuery bounds the spinner: values grow by one per superstep until
// limit, so a huge limit is an effectively endless run.
type spinQuery struct{ limit int64 }

// spinner raises border values every superstep; see the engine-side stepper
// for the convergence argument. steps signals every PEval/IncEval
// activation so the test can cancel mid-run deterministically.
type spinner struct{ steps chan struct{} }

func (spinner) Name() string { return "cancel-spinner" }

func (spinner) Spec() engine.VarSpec[int64] {
	return engine.VarSpec[int64]{
		Default: 0,
		Agg: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		Eq: func(a, b int64) bool { return a == b },
	}
}

func (s spinner) signal() {
	select {
	case s.steps <- struct{}{}:
	default:
	}
}

func (s spinner) PEval(q spinQuery, ctx *engine.Context[int64]) error {
	s.signal()
	if ctx.Frag.IsInner(0) {
		for _, i := range ctx.Frag.BorderIndices() {
			ctx.SetAt(i, 1)
		}
	}
	return nil
}

func (s spinner) IncEval(q spinQuery, ctx *engine.Context[int64]) error {
	s.signal()
	var m int64
	for _, i := range ctx.Frag.BorderIndices() {
		if v := ctx.GetAt(i); v > m {
			m = v
		}
	}
	if m >= q.limit {
		return nil
	}
	for _, i := range ctx.Frag.BorderIndices() {
		ctx.SetAt(i, m+1)
	}
	ctx.AddWork(1)
	return nil
}

func (s spinner) Assemble(q spinQuery, ctxs []*engine.Context[int64]) (map[graph.ID]int64, error) {
	out := map[graph.ID]int64{}
	for _, ctx := range ctxs {
		ctx.Vars(func(id graph.ID, v int64) {
			if ctx.Frag.IsInner(id) {
				out[id] = v
			}
		})
	}
	return out, nil
}

type spinCodec struct{}

func (spinCodec) AppendVal(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(v))
}

func (spinCodec) DecodeVal(data []byte) (int64, int, error) {
	if len(data) < 8 {
		return 0, 0, errors.New("short int64")
	}
	return int64(binary.BigEndian.Uint64(data)), 8, nil
}

func (spinner) WireCodec() engine.Codec[int64] { return spinCodec{} }

func (spinner) EncodeQuery(q spinQuery) ([]byte, error) {
	return binary.BigEndian.AppendUint64(nil, uint64(q.limit)), nil
}

func (spinner) DecodeQuery(data []byte) (spinQuery, error) {
	if len(data) < 8 {
		return spinQuery{}, errors.New("short spin query")
	}
	return spinQuery{limit: int64(binary.BigEndian.Uint64(data))}, nil
}

// spinSteps is the side channel worker-side spinner instances signal on.
// The worker goroutines run in this test process (over real sockets), so
// the captured channel crosses the "process" boundary the way a log line
// would in production.
var spinSteps = make(chan struct{}, 65536)

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[spinQuery, int64, map[graph.ID]int64]{
		Prog:        spinner{steps: spinSteps},
		Description: "endless stepper for wire cancellation tests",
		QueryHelp:   "limit=<n>",
		Parse:       func(string) (spinQuery, error) { return spinQuery{limit: 1 << 40}, nil },
		Canonical:   func(spinQuery) string { return "" },
	}))
}

// startAbortableWorkers is startWorkers with the finish condition inverted
// for cancellation runs: every worker must exit with engine.ErrAborted.
func startAbortableWorkers(t *testing.T, n int) (*transport.Coordinator, func() []error) {
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
	return tr, func() []error {
		tr.Close()
		l.Close()
		wg.Wait()
		return errs
	}
}

func drainSpin() {
	for {
		select {
		case <-spinSteps:
		default:
			return
		}
	}
}

func TestWireCancelMidFixpoint(t *testing.T) {
	const n = 4
	g := graph.New()
	for i := 0; i < 64; i++ {
		g.AddEdge(graph.ID(i), graph.ID((i+1)%64), 1)
	}
	g.Freeze()
	layout, err := engine.BuildLayout(g, engine.Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	drainSpin()

	tr, finish := startAbortableWorkers(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := spinner{steps: spinSteps}

	runDone := make(chan error, 1)
	go func() {
		_, _, err := engine.RunOnLayout(ctx, layout, prog, spinQuery{limit: 1 << 40},
			engine.Options{Workers: n, Transport: tr, MaxSupersteps: 1 << 30})
		runDone <- err
	}()

	// Cancel during superstep k: wait for a few rounds of worker
	// activations (signalled from inside the worker serve loops), then pull
	// the plug.
	for i := 0; i < 16; i++ {
		select {
		case <-spinSteps:
		case <-time.After(10 * time.Second):
			t.Fatal("wire workers never started computing")
		}
	}
	cancel()
	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled wire run did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", runErr)
	}

	// Every worker observed the abort frame and exited with ErrAborted —
	// not a link error, not a clean stop: the protocol told it the run was
	// cancelled.
	for i, err := range finish() {
		if !errors.Is(err, engine.ErrAborted) {
			t.Fatalf("worker %d: want engine.ErrAborted, got %v", i, err)
		}
	}
	// With all workers exited, no activation can arrive anymore: the
	// cancelled run stopped consuming worker CPU.
	drainSpin()
	time.Sleep(100 * time.Millisecond)
	if len(spinSteps) != 0 {
		t.Fatalf("%d worker activations after every worker exited", len(spinSteps))
	}

	// The same layout serves a fresh (bounded) run across both substrates,
	// and the answers agree — cancellation left nothing behind.
	busRes, _, err := engine.RunOnLayout(context.Background(), layout, prog, spinQuery{limit: 12}, engine.Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	tr2, finish2 := startWorkers(t, n)
	defer finish2()
	wireRes, _, err := engine.RunOnLayout(context.Background(), layout, prog, spinQuery{limit: 12},
		engine.Options{Workers: n, Transport: tr2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(busRes, wireRes) {
		t.Fatalf("post-cancellation runs differ between substrates:\nbus:  %v\nwire: %v", busRes, wireRes)
	}
}

// TestWireDeadlinePropagates runs the endless spinner under a short
// coordinator deadline and asserts the deadline — not a hang, not a link
// failure — ends the run on both sides of the socket.
func TestWireDeadlinePropagates(t *testing.T) {
	const n = 2
	g := graph.New()
	for i := 0; i < 32; i++ {
		g.AddEdge(graph.ID(i), graph.ID((i+1)%32), 1)
	}
	g.Freeze()
	layout, err := engine.BuildLayout(g, engine.Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	drainSpin()

	tr, finish := startAbortableWorkers(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, _, err = engine.RunOnLayout(ctx, layout, spinner{steps: spinSteps}, spinQuery{limit: 1 << 40},
		engine.Options{Workers: n, Transport: tr, MaxSupersteps: 1 << 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// Each worker ends through whichever bound fires first: the
	// coordinator's abort frame (ErrAborted) or its own copy of the
	// propagated deadline from the setup frame (DeadlineExceeded). Either
	// way the deadline — not a hang, not a link failure — ended the run.
	for i, werr := range finish() {
		if !errors.Is(werr, engine.ErrAborted) && !errors.Is(werr, context.DeadlineExceeded) {
			t.Fatalf("worker %d: want ErrAborted or DeadlineExceeded, got %v", i, werr)
		}
	}
}
