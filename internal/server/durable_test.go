package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/store"
)

// newDurableServer builds a server persisting to dir with the test graphs
// resident (AddGraph snapshots each at epoch 1).
func newDurableServer(t testing.TB, dir string, cfg Config) *Server {
	t.Helper()
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Durable = ds
	s, _ := newTestServer(t, cfg)
	return s
}

// reopenDurable starts a fresh server over dir and recovers every graph, as
// a restart after a crash would.
func reopenDurable(t testing.TB, dir string, cfg Config) (*Server, []RecoveryInfo) {
	t.Helper()
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Durable = ds
	s := New(cfg)
	infos, err := s.RecoverAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return s, infos
}

func graphEpochs(s *Server) map[string]uint64 {
	out := map[string]uint64{}
	for _, gi := range s.Graphs() {
		out[gi.Name] = gi.Epoch
	}
	return out
}

// TestDurableRestartIdenticalAnswers is the in-process crash-recovery
// acceptance: mutate with mixed insert/delete batches, record every query
// class's answer and epoch, drop the server (no clean shutdown of the
// sessions — only what the write-ahead journal guarantees), restart over the
// same directory and demand identical answers at the identical epoch.
func TestDurableRestartIdenticalAnswers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	ctx := context.Background()

	// Mixed streams on the two mutable (directed) graphs; road's flows
	// through an sssp session, social's through the default cc session.
	mutate := func(graphName, program, query string, edges []EdgeJSON) uint64 {
		t.Helper()
		m, err := s.Mutate(ctx, graphName, program, query, edges)
		if err != nil {
			t.Fatalf("mutating %s: %v", graphName, err)
		}
		return m.Epoch
	}
	mutate("road", "sssp", "source=0", []EdgeJSON{{From: 0, To: 100, W: 0.5}, {From: 1, To: 101, W: 0.25}})
	mutate("road", "sssp", "source=0", []EdgeJSON{{From: 0, To: 100, W: 0.5, Del: true}, {From: 2, To: 102, W: 0.75}})
	mutate("social", "", "", []EdgeJSON{{From: 10, To: 900, W: 1}})
	if e := mutate("social", "", "", []EdgeJSON{{From: 10, To: 900, W: 1, Del: true}, {From: 11, To: 901, W: 1}}); e != 3 {
		t.Fatalf("social epoch after 2 mutations = %d, want 3", e)
	}

	wantEpochs := graphEpochs(s)
	if wantEpochs["road"] != 3 || wantEpochs["social"] != 3 {
		t.Fatalf("pre-crash epochs = %v", wantEpochs)
	}
	liveGraphs := map[string]*graph.Graph{}
	for _, name := range []string{"road", "social"} {
		liveGraphs[name], _ = servedState(t, s, name)
	}
	wantResults := map[string]any{}
	for _, c := range programCases {
		resp, err := s.Query(ctx, QueryRequest{Graph: c.graph, Program: c.program, Query: c.query, NoCache: true})
		if err != nil {
			t.Fatalf("%s pre-crash: %v", c.program, err)
		}
		if resp.Epoch != wantEpochs[c.graph] {
			t.Fatalf("%s answered at epoch %d, graph is at %d", c.program, resp.Epoch, wantEpochs[c.graph])
		}
		wantResults[c.program] = resp.Result
	}
	// Simulated SIGKILL: the server is dropped without flushing anything —
	// only the fsync-ed snapshot + journal survive. (Close would be a clean
	// shutdown; not calling it is the point. The stores are leaked for the
	// test's duration, which is fine.)
	s = nil

	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	if len(infos) != 4 {
		t.Fatalf("recovered %d graphs, want 4", len(infos))
	}
	for _, info := range infos {
		if info.Damage != "" {
			t.Fatalf("%s recovered with damage %q from a clean journal", info.Graph, info.Damage)
		}
		if info.Epoch != wantEpochs[info.Graph] {
			t.Fatalf("%s recovered at epoch %d, want %d", info.Graph, info.Epoch, wantEpochs[info.Graph])
		}
	}
	if got := graphEpochs(s2); !reflect.DeepEqual(got, wantEpochs) {
		t.Fatalf("post-recovery epochs %v, want %v", got, wantEpochs)
	}
	for name, live := range liveGraphs {
		recovered, _ := servedState(t, s2, name)
		if err := graph.Diff(live, recovered); err != nil {
			t.Fatalf("%s recovered graph differs from the live one: %v", name, err)
		}
	}
	for _, c := range programCases {
		resp, err := s2.Query(ctx, QueryRequest{Graph: c.graph, Program: c.program, Query: c.query, NoCache: true})
		if err != nil {
			t.Fatalf("%s post-recovery: %v", c.program, err)
		}
		if resp.Epoch != wantEpochs[c.graph] {
			t.Fatalf("%s post-recovery epoch %d, want %d", c.program, resp.Epoch, wantEpochs[c.graph])
		}
		if !reflect.DeepEqual(resp.Result, wantResults[c.program]) {
			t.Fatalf("%s answer changed across restart", c.program)
		}
	}
	// The journal keeps working after recovery: one more mutation lands on
	// the next epoch.
	m, err := s2.Mutate(ctx, "road", "sssp", "source=0", []EdgeJSON{{From: 3, To: 103, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != wantEpochs["road"]+1 {
		t.Fatalf("post-recovery mutation landed on epoch %d, want %d", m.Epoch, wantEpochs["road"]+1)
	}
}

// durability returns the /stats durability gauges of one graph.
func durability(t testing.TB, s *Server, name string) metrics.GraphDurability {
	t.Helper()
	for _, d := range s.Stats().Durable {
		if d.Graph == name {
			return d
		}
	}
	t.Fatalf("no durability gauges for %q", name)
	return metrics.GraphDurability{}
}

// TestDurableRejectedBatchNotJournaled checks that Mutate validates a batch
// before it journals it: a rejected batch is bad input that never reaches
// the disk and never replaces the retained session, the journal holds only
// the accepted batches, the durability gauges match the store, and a
// restart replays exactly those batches onto the live epoch.
func TestDurableRejectedBatchNotJournaled(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	ctx := context.Background()
	rg, err := s.resident("road")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Mutate(ctx, "road", "", "", []EdgeJSON{{From: 0, To: 200, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// A batch naming a vertex that doesn't exist: rejected, nothing applied.
	if _, err := s.Mutate(ctx, "road", "", "", []EdgeJSON{{From: 0, To: 1, W: 1}, {From: 0, To: 999999, W: 1}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("invalid batch: %v, want ErrBadQuery", err)
	}
	if _, err := s.Mutate(ctx, "road", "", "", []EdgeJSON{{From: 1, To: 201, W: 1}}); err != nil {
		t.Fatal(err)
	}
	want := graphEpochs(s)["road"]
	if want != 3 {
		t.Fatalf("epoch after 2 applied + 1 rejected = %d, want 3", want)
	}
	sess := rg.sess
	before := durability(t, s, "road")
	if st := rg.ds.Stats(); before.JournalRecords != 2 || st.JournalRecords != 2 || before.JournalBytes != st.JournalBytes {
		t.Fatalf("journal after 2 applied + 1 rejected: gauges %d records %d bytes, store %d records %d bytes; want 2 records, equal bytes",
			before.JournalRecords, before.JournalBytes, st.JournalRecords, st.JournalBytes)
	}
	// 20 more rejected batches, some under another program: an unknown
	// vertex, a deletion of an edge that does not exist, an sssp negative
	// weight. None touches the journal, the epoch or the retained session.
	for i := 0; i < 20; i++ {
		program, query, edges := "", "", []EdgeJSON{{From: 2, To: 202, W: 1}, {From: int64(1000000 + i), To: 3, W: 1}}
		switch i % 3 {
		case 1:
			edges = []EdgeJSON{{From: 3, To: 203, W: 1, Del: true}}
		case 2:
			program, query, edges = "sssp", "source=0", []EdgeJSON{{From: 0, To: 1, W: -1}}
		}
		if _, err := s.Mutate(ctx, "road", program, query, edges); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("rejected batch %d: %v, want ErrBadQuery", i, err)
		}
	}
	after := durability(t, s, "road")
	if after.JournalRecords != before.JournalRecords || after.JournalBytes != before.JournalBytes {
		t.Fatalf("20 rejected batches moved the journal gauges from %d records %d bytes to %d records %d bytes",
			before.JournalRecords, before.JournalBytes, after.JournalRecords, after.JournalBytes)
	}
	if st := rg.ds.Stats(); st.JournalRecords != 2 || st.JournalBytes != before.JournalBytes {
		t.Fatalf("20 rejected batches grew the journal to %d records %d bytes", st.JournalRecords, st.JournalBytes)
	}
	if got := graphEpochs(s)["road"]; got != want {
		t.Fatalf("epoch %d after rejected batches, want %d", got, want)
	}
	if rg.sess != sess {
		t.Fatal("a rejected batch replaced the retained session")
	}

	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	for _, info := range infos {
		if info.Graph == "road" && (info.Replayed != 2 || info.Epoch != want) {
			t.Fatalf("road recovered at epoch %d after %d records, want %d after 2", info.Epoch, info.Replayed, want)
		}
	}
}

// TestDurableFailedAppendCounted: a batch whose journal append fails is a
// server fault (not a 400) that changes nothing, and /stats and /metrics
// count it: append_failures 1, journal_records still the one applied batch.
func TestDurableFailedAppendCounted(t *testing.T) {
	s := newDurableServer(t, t.TempDir(), Config{Workers: 4, Strategy: "hash"})
	defer s.Close()
	h := s.Handler()
	update := func(to int) *httptest.ResponseRecorder {
		return post(h, "/update", []byte(fmt.Sprintf(`{"graph":"road","edges":[{"from":0,"to":%d,"w":1}]}`, to)))
	}
	if rec := update(200); rec.Code != http.StatusOK {
		t.Fatalf("first batch: status %d: %s", rec.Code, rec.Body)
	}
	rg, err := s.resident("road")
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.ds.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := update(201); rec.Code == http.StatusOK || rec.Code == http.StatusBadRequest {
		t.Fatalf("a batch the journal refused: status %d, want a server error", rec.Code)
	}
	if got := graphEpochs(s)["road"]; got != 2 {
		t.Fatalf("epoch %d after a refused append, want 2", got)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Durable []metrics.GraphDurability `json:"durable"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	var road *metrics.GraphDurability
	for i := range stats.Durable {
		if stats.Durable[i].Graph == "road" {
			road = &stats.Durable[i]
		}
	}
	if road == nil || road.AppendFailures != 1 || road.JournalRecords != 1 {
		t.Fatalf("/stats durability for road: %+v, want append_failures 1 and journal_records 1", road)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := metrics.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[`grape_journal_append_failures_total{graph="road"}`]; got != 1 {
		t.Fatalf("grape_journal_append_failures_total{graph=\"road\"} = %g, want 1", got)
	}
}

// TestDurableReplaySkipsRejectedRecord: a server that journaled a batch
// before validating it left records in the journal that its session then
// rejected. Replay validates each record, skips such a one without bumping
// the epoch, and lands on the live graph. The record here is an sssp
// negative weight, which a bare splice would accept.
func TestDurableReplaySkipsRejectedRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	ctx := context.Background()
	if _, err := s.Mutate(ctx, "road", "sssp", "source=0", []EdgeJSON{{From: 0, To: 200, W: 1}}); err != nil {
		t.Fatal(err)
	}
	rg, err := s.resident("road")
	if err != nil {
		t.Fatal(err)
	}
	rejected := store.Record{PreEpoch: 2, Program: "sssp", Query: "source=0", Updates: []engine.EdgeUpdate{{From: 0, To: 1, W: -1}}}
	if err := rg.ds.Append(rejected); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(ctx, "road", "sssp", "source=0", []EdgeJSON{{From: 1, To: 201, W: 1}}); err != nil {
		t.Fatal(err)
	}
	live, epoch := servedState(t, s, "road")
	if epoch != 3 {
		t.Fatalf("live epoch %d, want 3", epoch)
	}
	s = nil // simulated crash: only the snapshot and the journal survive

	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	for _, info := range infos {
		if info.Graph == "road" && (info.Epoch != 3 || info.Replayed != 3) {
			t.Fatalf("road recovered at epoch %d after %d records, want 3 after 3", info.Epoch, info.Replayed)
		}
	}
	recovered, _ := servedState(t, s2, "road")
	if err := graph.Diff(live, recovered); err != nil {
		t.Fatalf("the recovered graph differs from the live one: %v", err)
	}
}

// TestDurableTamperedJournal flips a byte in a journal record and checks the
// restart refuses the broken suffix: the graph comes back at the epoch of
// the intact prefix, with the damage surfaced.
func TestDurableTamperedJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	ctx := context.Background()
	for i := int64(0); i < 3; i++ {
		if _, err := s.Mutate(ctx, "road", "", "", []EdgeJSON{{From: i, To: 300 + i, W: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // release the journal before editing it

	wals, err := filepath.Glob(filepath.Join(dir, "road", "wal-*.grj"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("journal files: %v %v", wals, err)
	}
	data, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the second record's region: the first record must
	// survive, everything after must be refused. Records here are equal-size
	// (one identical-shape update each), so split the record region in 3.
	recBytes := (len(data) - 56) / 3
	data[56+recBytes+recBytes/2] ^= 0x01
	if err := os.WriteFile(wals[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	for _, info := range infos {
		if info.Graph != "road" {
			continue
		}
		if info.Damage == "" {
			t.Fatal("tampered journal recovered without damage report")
		}
		if info.Replayed != 1 || info.Epoch != 2 {
			t.Fatalf("recovered %d records to epoch %d, want 1 record to epoch 2", info.Replayed, info.Epoch)
		}
	}
	// The tampered suffix is gone for good: a mutation after recovery
	// extends the intact chain and the next restart is clean.
	if _, err := s2.Mutate(ctx, "road", "", "", []EdgeJSON{{From: 5, To: 305, W: 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCompaction drives the background compactor: once the journal
// crosses the record threshold the graph is re-snapshotted at its current
// epoch, the journal truncates, and a restart replays (almost) nothing. The
// threshold equals the number of mutations, so the one compaction can only
// land after the last of them.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash", CompactRecords: 3, CompactBytes: -1, CompactInterval: 20 * time.Millisecond}
	s := newDurableServer(t, dir, cfg)
	defer s.Close()
	ctx := context.Background()
	for i := int64(0); i < 3; i++ {
		if _, err := s.Mutate(ctx, "road", "", "", []EdgeJSON{{From: i, To: 400 + i, W: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var d *struct {
			snap    uint64
			records int
		}
		for _, g := range s.Stats().Durable {
			if g.Graph == "road" {
				d = &struct {
					snap    uint64
					records int
				}{g.SnapshotEpoch, g.JournalRecords}
			}
		}
		if d != nil && d.snap == 4 && d.records == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not run: %+v", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The old pair is gone; exactly one (snapshot, journal) pair remains.
	snaps, _ := filepath.Glob(filepath.Join(dir, "road", "snap-*.grs"))
	wals, _ := filepath.Glob(filepath.Join(dir, "road", "wal-*.grj"))
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("post-compaction files: snaps=%v wals=%v", snaps, wals)
	}
	if !strings.HasSuffix(snaps[0], "snap-0000000000000004.grs") {
		t.Fatalf("snapshot not at epoch 4: %s", snaps[0])
	}

	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	for _, info := range infos {
		if info.Graph == "road" {
			if info.SnapshotEpoch != 4 || info.Replayed != 0 || info.Epoch != 4 {
				t.Fatalf("post-compaction recovery: %+v", info)
			}
		}
	}
}

// TestDurableStoreHoldsOnePair checks what the data directory holds: after
// rounds of updates and uncached queries every graph directory holds exactly
// one snapshot and one journal — layouts live only in memory — and after a
// restart an uncached query, cut afresh, answers as before.
func TestDurableStoreHoldsOnePair(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "fennel"}
	s := newDurableServer(t, dir, cfg)
	ctx := context.Background()
	// sssp on road cuts a plain layout, tricount on social a 1-hop expanded one.
	queries := []QueryRequest{
		{Graph: "road", Program: "sssp", Query: "source=0", NoCache: true},
		{Graph: "social", Program: "tricount", NoCache: true},
	}
	want := make([]*QueryResponse, len(queries))
	for i := int64(0); i < 3; i++ {
		for k, q := range queries {
			if _, err := s.Mutate(ctx, q.Graph, "", "", []EdgeJSON{{From: i, To: 200 + i, W: 0.5}}); err != nil {
				t.Fatal(err)
			}
			resp, err := s.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s after update %d: %v", q.Program, i, err)
			}
			want[k] = resp
		}
	}
	graphs, err := os.ReadDir(dir)
	if err != nil || len(graphs) != 4 {
		t.Fatalf("data directory holds %v (err %v), want 4 graphs", graphs, err)
	}
	for _, g := range graphs {
		files, err := os.ReadDir(filepath.Join(dir, g.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		if len(names) != 2 || !strings.HasPrefix(names[0], "snap-") || !strings.HasSuffix(names[0], ".grs") ||
			!strings.HasPrefix(names[1], "wal-") || !strings.HasSuffix(names[1], ".grj") {
			t.Errorf("graph %s holds %v, want one snap-*.grs and one wal-*.grj", g.Name(), names)
		}
	}

	s2, infos := reopenDurable(t, dir, cfg)
	defer s2.Close()
	if len(infos) != 4 {
		t.Fatalf("recovered %d graphs", len(infos))
	}
	for k, q := range queries {
		resp, err := s2.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != want[k].Epoch || !reflect.DeepEqual(resp.Result, want[k].Result) {
			t.Fatalf("%s answer after restart at epoch %d differs from the one at epoch %d", q.Program, resp.Epoch, want[k].Epoch)
		}
	}
}

// TestDurableUnknownGraphTouchesNothing checks that a query or mutation
// naming a graph that is not resident is ErrNotFound and leaves the data
// directory exactly as it was: hostile names cannot grow it.
func TestDurableUnknownGraphTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir, Config{Workers: 4, Strategy: "hash"})
	defer s.Close()
	listing := func() []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		return names
	}
	before := listing()
	ctx := context.Background()
	if _, err := s.Query(ctx, QueryRequest{Graph: "nope", Program: "cc"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query of an unknown graph: %v, want ErrNotFound", err)
	}
	if _, err := s.Mutate(ctx, "nope2", "", "", []EdgeJSON{{From: 0, To: 1, W: 1}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mutation of an unknown graph: %v, want ErrNotFound", err)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Fatalf("data directory holds %v after unknown-graph requests, held %v", after, before)
	}
}

// TestDurableRecoverAllCancelledContext checks that replay ignores ctx: it
// runs no program, so a context cancelled before RecoverAll still recovers
// every journaled batch, up to the journaled epoch.
func TestDurableRecoverAllCancelledContext(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	for i := int64(0); i < 2; i++ {
		if _, err := s.Mutate(context.Background(), "road", "", "", []EdgeJSON{{From: i, To: 500 + i, W: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Durable = ds
	s2 := New(cfg)
	defer s2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s2.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got := graphEpochs(s2)["road"]; got != 3 {
		t.Fatalf("road recovered at epoch %d under a cancelled context, want 3", got)
	}
}

// gateProg is a fixture whose PEval signals gateEntered and then blocks until
// gateRelease is closed, so a test can hold a run inside its run slot for as
// long as it likes.
type gateProg struct{}

var (
	gateEntered = make(chan struct{}, 64)
	gateRelease chan struct{}
)

func (gateProg) Name() string                { return "server-gate" }
func (gateProg) Spec() engine.VarSpec[int64] { return engine.VarSpec[int64]{} }

func (gateProg) PEval(_ struct{}, _ *engine.Context[int64]) error {
	gateEntered <- struct{}{}
	<-gateRelease
	return nil
}

func (gateProg) IncEval(struct{}, *engine.Context[int64]) error { return nil }

func (gateProg) Assemble(struct{}, []*engine.Context[int64]) (int64, error) { return 0, nil }

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[struct{}, int64, int64]{
		Prog:      gateProg{},
		Parse:     func(string) (struct{}, error) { return struct{}{}, nil },
		Canonical: func(struct{}) string { return "" },
	}))
}

// TestDurableCloseWaitsForAbandonedRun: a cancelled query returns while its
// run still holds a run slot, and the run may be reading a mapped snapshot.
// Close must wait for that run to release its slot before it unmaps the
// stores.
func TestDurableCloseWaitsForAbandonedRun(t *testing.T) {
	s := newDurableServer(t, t.TempDir(), Config{Workers: 2, MaxInFlight: 2, QueryTimeout: time.Minute})
	gateRelease = make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gateRelease)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	queried := make(chan error, 1)
	go func() {
		_, err := s.Query(ctx, QueryRequest{Graph: "road", Program: "server-gate"})
		queried <- err
	}()
	select {
	case <-gateEntered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated run never started")
	}
	cancel()
	if err := <-queried; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an abandoned run still held its slot")
	case <-time.After(200 * time.Millisecond):
	}
	close(gateRelease)
	released = true
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the run was released")
	}
	if _, inFlight := s.sched.gauges(); inFlight != 0 {
		t.Fatalf("Close returned with %d runs in flight", inFlight)
	}
	if _, err := s.Query(context.Background(), QueryRequest{Graph: "road", Program: "sssp", Query: "source=0", NoCache: true}); err == nil {
		t.Fatal("a closed server admitted a run")
	}
}

// TestDurableCorruptSnapshotIsLoud: a graph whose snapshots exist but none
// validates is not recovered, and not silently either — an ERROR record with
// the graph, epoch and reason, the unusable_snapshots counter on /stats and
// /metrics, and a 404 that names the unusable snapshot. A directory holding
// no snapshot at all is still skipped quietly.
func TestDurableCorruptSnapshotIsLoud(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := newDurableServer(t, dir, cfg)
	if _, err := s.Mutate(context.Background(), "road", "", "", []EdgeJSON{{From: 0, To: 300, W: 1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snaps, err := filepath.Glob(filepath.Join(dir, "road", "snap-*.grs"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files: %v %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}

	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	cfg.Durable, cfg.Logger = ds, slog.New(slog.NewJSONHandler(&logs, nil))
	s2 := New(cfg)
	infos, err := s2.RecoverAll(context.Background())
	if err != nil {
		t.Fatalf("RecoverAll: %v", err)
	}
	for _, info := range infos {
		if info.Graph == "road" || info.Graph == "empty" {
			t.Fatalf("recovered %q: %+v", info.Graph, info)
		}
	}
	h := s2.Handler()

	for _, req := range []struct{ path, body string }{
		{"/query", `{"graph":"road","program":"cc"}`},
		{"/update", `{"graph":"road","edges":[{"from":0,"to":1,"w":1}]}`},
	} {
		rec := post(h, req.path, []byte(req.body))
		if body := rec.Body.String(); rec.Code != http.StatusNotFound || !strings.Contains(body, "snapshot is unusable") ||
			!strings.Contains(body, "snapshot epoch 1") || strings.Contains(body, "no graph") {
			t.Errorf("POST %s naming the corrupt graph: %d %s", req.path, rec.Code, body)
		}
	}
	if rec := post(h, "/query", []byte(`{"graph":"empty","program":"cc"}`)); !strings.Contains(rec.Body.String(), `no graph \"empty\" resident`) {
		t.Errorf("query naming the empty directory: %d %s", rec.Code, rec.Body)
	}

	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes()
	}
	var stats map[string]any
	if err := json.Unmarshal(get("/stats"), &stats); err != nil || stats["unusable_snapshots"] != 1.0 {
		t.Errorf("/stats unusable_snapshots = %v (err %v), want 1", stats["unusable_snapshots"], err)
	}
	samples, err := metrics.ParseExposition(get("/metrics"))
	if err != nil || samples["grape_unusable_snapshots_total"] != 1 {
		t.Errorf("/metrics grape_unusable_snapshots_total = %v (err %v), want 1", samples["grape_unusable_snapshots_total"], err)
	}
	s2.Close()

	var loud []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(logs.Bytes()), []byte("\n")) {
		var r map[string]any
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if r["level"] == "ERROR" {
			loud = append(loud, r)
		}
	}
	if len(loud) != 1 || loud[0]["graph"] != "road" || loud[0]["epoch"] != 1.0 ||
		!strings.Contains(fmt.Sprint(loud[0]["reason"]), "checksum mismatch") {
		t.Fatalf("ERROR records %v, want one naming road, epoch 1 and the checksum mismatch", loud)
	}
}

// TestDurableVersion1SnapshotIsUnusable: a graph whose only snapshot names
// format version 1 — a layout no reader of this build parses — is not
// recovered, and every request naming it says why.
func TestDurableVersion1SnapshotIsUnusable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Strategy: "hash"}
	newDurableServer(t, dir, cfg).Close()
	snaps, err := filepath.Glob(filepath.Join(dir, "road", "snap-*.grs"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files: %v %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[8], data[9], data[10], data[11] = 1, 0, 0, 0
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, infos := reopenDurable(t, dir, cfg)
	defer s.Close()
	for _, info := range infos {
		if info.Graph == "road" {
			t.Fatalf("recovered road from a version-1 snapshot: %+v", info)
		}
	}
	_, err = s.Query(context.Background(), QueryRequest{Graph: "road", Program: "cc"})
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "snapshot is unusable") ||
		!strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("query naming road: %v, want not-resident naming version 1", err)
	}
}
