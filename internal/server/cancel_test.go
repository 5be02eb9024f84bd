package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/server"
)

// An endless registered program, so a served query can be cancelled
// mid-fixpoint: values grow by one per superstep forever (the query's limit
// is fixed by the parser at 2^40). srvSpins signals every activation.
type srvSpinQuery struct{ limit int64 }

type srvSpinner struct{ steps chan struct{} }

var srvSpins = make(chan struct{}, 65536)

func (srvSpinner) Name() string { return "server-spinner" }

func (srvSpinner) Spec() engine.VarSpec[int64] {
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

func (s srvSpinner) signal() {
	select {
	case s.steps <- struct{}{}:
	default:
	}
}

func (s srvSpinner) PEval(q srvSpinQuery, ctx *engine.Context[int64]) error {
	s.signal()
	if ctx.Frag.IsInner(0) {
		for _, i := range ctx.Frag.BorderIndices() {
			ctx.SetAt(i, 1)
		}
	}
	return nil
}

func (s srvSpinner) IncEval(q srvSpinQuery, ctx *engine.Context[int64]) error {
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
	return nil
}

func (s srvSpinner) Assemble(q srvSpinQuery, ctxs []*engine.Context[int64]) (int64, error) {
	var m int64
	for _, ctx := range ctxs {
		ctx.Vars(func(_ graph.ID, v int64) {
			if v > m {
				m = v
			}
		})
	}
	return m, nil
}

func (srvSpinner) WireCodec() engine.Codec[int64] { return srvSpinCodec{} }

type srvSpinCodec struct{}

func (srvSpinCodec) AppendVal(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(v))
}

func (srvSpinCodec) DecodeVal(data []byte) (int64, int, error) {
	if len(data) < 8 {
		return 0, 0, errors.New("short int64")
	}
	return int64(binary.BigEndian.Uint64(data)), 8, nil
}

func (srvSpinner) EncodeQuery(q srvSpinQuery) ([]byte, error) {
	return binary.BigEndian.AppendUint64(nil, uint64(q.limit)), nil
}

func (srvSpinner) DecodeQuery(data []byte) (srvSpinQuery, error) {
	if len(data) < 8 {
		return srvSpinQuery{}, errors.New("short query")
	}
	return srvSpinQuery{limit: int64(binary.BigEndian.Uint64(data))}, nil
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[srvSpinQuery, int64, int64]{
		Prog:        srvSpinner{steps: srvSpins},
		Description: "endless program for serving-path cancellation tests",
		QueryHelp:   "(none; the parser fixes limit=2^40)",
		Parse:       func(string) (srvSpinQuery, error) { return srvSpinQuery{limit: 1 << 40}, nil },
		Canonical:   func(srvSpinQuery) string { return "" },
	}))
}

// TestServedQueryCancellationFreesWorkers is the serving-path twin of the
// engine cancellation tests: the per-query context threads HTTP-request →
// scheduler admission → resident run, so cancelling it mid-fixpoint must
// abort the engine run (the PR 4 behavior was to 504 the client while the
// run burned cores to convergence). It then asserts the layout still serves
// a normal query afterwards and the cancelled query cached nothing.
func TestServedQueryCancellationFreesWorkers(t *testing.T) {
	s := server.New(server.Config{Workers: 4, MaxInFlight: 2, QueryTimeout: time.Minute})
	if err := s.AddGraph("road", gen.RoadGrid(12, 12, 1)); err != nil {
		t.Fatal(err)
	}
	for len(srvSpins) > 0 {
		<-srvSpins
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Query(ctx, server.QueryRequest{Graph: "road", Program: "server-spinner", Query: ""})
		done <- err
	}()
	for i := 0; i < 16; i++ {
		select {
		case <-srvSpins:
		case <-time.After(10 * time.Second):
			t.Fatal("served spinner never started")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled served query did not return")
	}
	// The run aborted rather than being detached: give any straggler one
	// superstep's grace, then require silence.
	for len(srvSpins) > 0 {
		<-srvSpins
	}
	time.Sleep(100 * time.Millisecond)
	for len(srvSpins) > 0 {
		<-srvSpins
	}
	time.Sleep(100 * time.Millisecond)
	if n := len(srvSpins); n != 0 {
		t.Fatalf("%d worker activations after the cancelled query returned — the run was not aborted", n)
	}

	// The shared layout is unharmed and the cancelled run cached nothing.
	resp, err := s.Query(context.Background(), server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first sssp query cannot be a cache hit")
	}
	st := s.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("cancelled query must not populate the cache (hits=%d)", st.CacheHits)
	}
}

// TestRejectedMutationKeepsState: a mutation batch rejected by the
// session's pre-mutation validation (unknown vertex, negative weight) maps
// to bad input and must not bump the epoch, drop layouts, or tear down the
// update session — nothing was mutated.
func TestRejectedMutationKeepsState(t *testing.T) {
	s := server.New(server.Config{Workers: 4})
	if err := s.AddGraph("road", gen.RoadGrid(12, 12, 1)); err != nil {
		t.Fatal(err)
	}
	// a first valid mutation establishes the session and epoch 2
	m1, err := s.Mutate(context.Background(), "road", "", "", []server.EdgeJSON{{From: 0, To: 100, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(context.Background(), "road", "", "", []server.EdgeJSON{{From: 0, To: 1, W: 1}, {From: 0, To: 999999, W: 1}}); !errors.Is(err, server.ErrBadQuery) {
		t.Fatalf("unknown vertex must map to ErrBadQuery, got %v", err)
	}
	gs := s.Graphs()
	if len(gs) != 1 || gs[0].Epoch != m1.Epoch {
		t.Fatalf("rejected mutation must not bump the epoch: %v", gs)
	}
	// the retained session still applies valid updates incrementally
	m2, err := s.Mutate(context.Background(), "road", "", "", []server.EdgeJSON{{From: 1, To: 101, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch != m1.Epoch+1 {
		t.Fatalf("valid mutation after a rejection: epoch %d, want %d", m2.Epoch, m1.Epoch+1)
	}
}
