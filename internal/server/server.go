package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/partition"
	_ "grape/internal/queries" // register the query classes sessions run
	"grape/internal/store"
	"grape/internal/trace"
)

// Sentinel errors the HTTP layer maps onto status codes. ErrOverloaded
// (scheduler.go) and context.DeadlineExceeded complete the set.
var (
	// ErrNotFound wraps unknown graph or program names.
	ErrNotFound = errors.New("server: not found")
	// ErrBadQuery wraps requests that cannot be served as sent: a body that
	// is not one JSON value of the request's shape, or a query string the
	// program's parser rejected.
	ErrBadQuery = errors.New("server: bad query")
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the fragment count of every resident layout. Zero means
	// runtime.GOMAXPROCS(0), as in engine.Options.
	Workers int
	// Strategy names the partition strategy of every resident layout (see
	// partition.ByName; an unknown name fails every request). Empty means
	// partition.Default.
	Strategy string
	// MaxInFlight bounds concurrently running queries. Default GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds queries waiting for a run slot; beyond it the server
	// sheds load with ErrOverloaded. Default 64.
	MaxQueue int
	// QueryTimeout bounds one query's queue wait plus run. Default 60s.
	QueryTimeout time.Duration
	// CacheEntries sizes the result cache; < 0 disables it. Default 256.
	CacheEntries int
	// Durable, if non-nil, is the binary snapshot + journal store behind the
	// serving path (grape-serve -data). Every POST /update batch is
	// validated, then journaled and fsync-ed before the session mutates (a
	// rejected batch never reaches disk), AddGraph persists a snapshot, and
	// RecoverAll — the only way durable state becomes resident — splices
	// each graph's journal into its snapshot at startup so a killed server
	// restarts onto the exact graph and epoch. A background compactor
	// re-snapshots at the current epoch once the journal crosses
	// CompactRecords or CompactBytes.
	Durable *store.Store
	// CompactRecords is the journal length that triggers compaction.
	// Default 4096 records; < 0 disables record-triggered compaction.
	CompactRecords int
	// CompactBytes is the journal size that triggers compaction. Default
	// 64 MiB; < 0 disables size-triggered compaction.
	CompactBytes int64
	// CompactInterval is how often the compactor checks the thresholds.
	// Default 15s.
	CompactInterval time.Duration
	// Recover enables superstep-checkpoint fault tolerance on every query
	// run (see engine.Options.Recover): a worker failure mid-run is
	// survived by reassignment and replay, and the recovered run's result
	// still fills the cache under its graph epoch.
	Recover bool
	// Fault, if non-nil, wraps every query run's transport (see
	// engine.Options.Fault) — the fault-injection hook the tests use to
	// exercise Recover end to end.
	Fault func(mpi.Transport) mpi.Transport
	// Logger, if non-nil, receives structured request/run records (one per
	// served query and mutation, plus engine run start/complete at Debug).
	// Nil keeps the server silent.
	Logger *slog.Logger
	// FlightRuns bounds the flight recorder's retention ring: the traces of
	// the most recent FlightRuns engine runs stay fetchable via
	// GET /debug/runs/{id}. Default 64.
	FlightRuns int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Strategy == "" {
		c.Strategy = partition.Default.Name()
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CompactRecords == 0 {
		c.CompactRecords = 4096
	}
	if c.CompactBytes == 0 {
		c.CompactBytes = 64 << 20
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = 15 * time.Second
	}
	return c
}

// Server keeps named graphs resident — each partitioned at most once per
// hops and epoch into a frozen layout, under the configured strategy and
// workers — and answers concurrent queries over the shared layouts. After a
// batch the hops-0 layout is the update session's own, spliced by the batch
// rather than cut again, for every program that answers the same on any cut.
// Safe for concurrent use.
//
// Admission is global (one MaxInFlight pool across all graphs), which keeps
// the resource bound simple but means a graph whose runs are slow — or
// blocked behind a pending mutation — can occupy slots that queries for
// other graphs then wait on. Per-graph fairness would need per-graph pools;
// out of scope here.
type Server struct {
	cfg     Config
	sched   *scheduler
	cache   *resultCache
	serving *metrics.Serving
	flight  *trace.Flight

	strat    partition.Strategy // cfg.Strategy, resolved once by New
	stratErr error              // why it did not resolve: a server fault every request fails with

	mu     sync.Mutex
	graphs map[string]*residentGraph
	gen    uint64 // generation counter for graph instances (cache-key scope)
	// unusable maps the graphs RecoverAll refused — snapshots on disk, none
	// valid — to the store's reason, which their 404s repeat.
	unusable map[string]string

	// Compactor lifecycle (durable.go); both nil without Config.Durable.
	compactStop chan struct{}
	compactDone chan struct{}
	closeOnce   sync.Once
	retired     []*store.GraphStore // stores of replaced graphs, closed at Close
}

// residentGraph is one named graph plus everything derived from it. mu is
// the load/mutate boundary: queries hold it for read during their whole run
// (layout build included), mutations hold it for write — so a mutation never
// interleaves with a run, and fragments stay safe to share.
type residentGraph struct {
	name string
	gen  uint64 // unique per graph instance, fixed at creation
	g    *graph.Graph

	mu    sync.RWMutex
	epoch uint64

	lmu     sync.Mutex
	layouts map[int]*layoutSlot // by expansion hops

	// sess is the continuous-update session mutations flow through, lazily
	// created for the (program, canonical query) the client mutates under —
	// any registered class works; programs without incremental hooks reseed
	// inside the session. It owns its own layout, which Mutate hands to the
	// hops-0 layout slot when it has hops 0 (see layoutSlot.session); every
	// other resident query layout is cut from the mutated base graph on first
	// use.
	sess      engine.SessionHandle
	sessProg  string
	sessCanon string

	// ds, when the server is durable, is the snapshot + journal pair behind
	// this graph. Mutations append to it (under mu) before they apply;
	// recovery replayed its journal to reach the current epoch. The recovery
	// cost fields are written once before the graph is published and feed
	// the durability gauges; compactions is bumped by the compactor, which
	// only holds mu for read, appendFailures by Mutate, under mu.
	ds             *store.GraphStore
	recoveryMs     float64
	replayed       int
	damage         string
	compactions    atomic.Uint64
	appendFailures uint64
}

// layoutSlot is one expansion depth's layout at the current epoch. It builds
// a fresh cut at most once; concurrent first queries on the same depth wait
// on the sync.Once.
type layoutSlot struct {
	// session, set on the hops-0 slot after a batch, is the retained update
	// session's own layout: the cut the session opened with, every batch
	// since spliced in. It is never cut again, so under an edge-driven
	// strategy (fennel, ldg, metis) it drifts from the cut the changed graph
	// would get: cut-invariant answers do not move, their traffic may.
	// Cut-invariant programs run on it, and the fresh cut is built only when
	// another program asks. It needs no copy: Mutate, the one writer of that
	// layout, holds rg.mu for write and every run holds it for read, so no
	// run sees the layout change under it.
	session *partition.Layout

	once   sync.Once
	layout *partition.Layout
	err    error
}

// New returns an empty server; graphs become resident through AddGraph or,
// on a durable server, RecoverAll.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	strat, err := partition.ByName(cfg.Strategy)
	s := &Server{
		cfg:      cfg,
		strat:    strat,
		stratErr: err,
		sched:    newScheduler(cfg.MaxInFlight, cfg.MaxQueue),
		serving:  metrics.NewServing(),
		flight:   trace.NewFlight(cfg.FlightRuns),
		graphs:   make(map[string]*residentGraph),
		unusable: make(map[string]string),
	}
	s.cache = newResultCache(cfg.CacheEntries, s.serving.AddCacheEncodedBytes)
	if cfg.Durable != nil {
		s.compactStop = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.compactLoop()
	}
	return s
}

// newResident mints a graph instance with a fresh generation. Callers hold
// s.mu (the generation counter is guarded by it).
func (s *Server) newResident(name string, g *graph.Graph) *residentGraph {
	s.gen++
	return &residentGraph{name: name, gen: s.gen, g: g, epoch: 1, layouts: make(map[int]*layoutSlot)}
}

// AddGraph makes g resident under name, replacing any previous graph with
// that name. The replacement gets a fresh cache-key generation, so answers
// computed against the old instance — even by a Mutate racing with the
// replacement — can never be served for the new one. The server owns g from
// here on: callers must not mutate it — route updates through Mutate.
//
// On a durable server (Config.Durable), AddGraph also persists g: any prior
// durable state under name is wiped and replaced by a snapshot at epoch 1
// with an empty journal — AddGraph is the explicit "this is the new graph"
// operation, so recovered state does not survive it. To keep recovered state,
// recover first (RecoverAll) and skip the AddGraph.
func (s *Server) AddGraph(name string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("server: empty graph name")
	}
	var ds *store.GraphStore
	if s.cfg.Durable != nil {
		var err error
		if ds, err = s.cfg.Durable.Graph(name); err != nil {
			return fmt.Errorf("server: durable store for %q: %w", name, err)
		}
		if err := ds.Create(g, 1); err != nil {
			return fmt.Errorf("server: persisting %q: %w", name, err)
		}
	}
	s.mu.Lock()
	old := s.graphs[name]
	rg := s.newResident(name, g)
	rg.ds = ds
	s.graphs[name] = rg
	if old != nil && old.ds != nil {
		// The replaced instance may still be serving in-flight queries (and
		// its graph may alias a mapped snapshot), so its store cannot be
		// closed here; it is retired and released at Server.Close.
		s.retired = append(s.retired, old.ds)
	}
	s.mu.Unlock()
	if ds != nil {
		s.publishDurability(rg)
	}
	return nil
}

// Graphs lists the resident graphs, sorted by name.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	rgs := make([]*residentGraph, 0, len(s.graphs))
	for _, rg := range s.graphs {
		rgs = append(rgs, rg)
	}
	s.mu.Unlock()
	out := make([]GraphInfo, 0, len(rgs))
	for _, rg := range rgs {
		rg.mu.RLock()
		out = append(out, GraphInfo{
			Name:     rg.name,
			Vertices: rg.g.NumVertices(),
			Edges:    rg.g.NumEdges(),
			Directed: rg.g.Directed(),
			Epoch:    rg.epoch,
		})
		rg.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Health reports liveness plus the resident graph count (GET /healthz).
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{OK: true, Graphs: len(s.graphs)}
}

// Stats snapshots the serving metrics plus the scheduler gauges.
func (s *Server) Stats() metrics.ServingSnapshot {
	queued, inFlight := s.sched.gauges()
	return s.serving.Snapshot(queued, inFlight)
}

// WriteMetrics writes the Prometheus text exposition served at GET /metrics.
func (s *Server) WriteMetrics(w io.Writer) error {
	queued, inFlight := s.sched.gauges()
	return s.serving.WritePrometheus(w, queued, inFlight)
}

// Flight exposes the run-trace retention ring (GET /debug/runs).
func (s *Server) Flight() *trace.Flight { return s.flight }

// resident resolves name among the resident graphs. A graph becomes resident
// only through AddGraph or RecoverAll; any other name is ErrNotFound — which
// for a graph RecoverAll refused says why — and looking it up touches nothing
// on disk.
func (s *Server) resident(name string) (*residentGraph, error) {
	s.mu.Lock()
	rg, ok := s.graphs[name]
	reason, refused := s.unusable[name]
	s.mu.Unlock()
	switch {
	case ok:
		return rg, nil
	case refused:
		return nil, fmt.Errorf("%w: graph %q is not resident: its snapshot is unusable: %s", ErrNotFound, name, reason)
	default:
		return nil, fmt.Errorf("%w: no graph %q resident", ErrNotFound, name)
	}
}

// layoutFor returns the layout a program's query on the hops slot runs on:
// the session's for a cut-invariant program when the slot holds one, else
// the slot's fresh cut, built on first use. Callers hold rg.mu for read, so
// the graph is stable throughout.
func (s *Server) layoutFor(rg *residentGraph, hops int, e engine.Entry) (*partition.Layout, error) {
	rg.lmu.Lock()
	slot, ok := rg.layouts[hops]
	if !ok {
		slot = new(layoutSlot)
		rg.layouts[hops] = slot
	}
	rg.lmu.Unlock()
	if slot.session != nil && e.CutInvariant {
		return slot.session, nil
	}
	slot.once.Do(func() {
		slot.layout, slot.err = engine.BuildLayout(rg.g, engine.Options{
			Workers:    s.cfg.Workers,
			Strategy:   s.strat,
			ExpandHops: hops,
		})
	})
	return slot.layout, slot.err
}

// Query answers one request: parse, try the cache, pass admission, run on
// the resident layout, cache and return. The request's context threads all
// the way down — queue wait (scheduler admission), then the engine fixpoint
// itself — and is bounded by Config.QueryTimeout (or a sooner ctx deadline
// or client disconnect): an abandoned run is cancelled at its next
// superstep barrier and its workers freed.
func (s *Server) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	start := time.Now()
	resp, cached, err := s.query(ctx, req, start)
	d := time.Since(start)
	switch {
	case err == nil && cached:
		s.serving.ObserveHit(d)
	case err == nil:
		s.serving.ObserveMiss(d)
	case errors.Is(err, ErrOverloaded):
		s.serving.ObserveRejected()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.serving.ObserveTimeout()
	default:
		s.serving.ObserveError(d)
	}
	if lg := s.cfg.Logger; lg != nil {
		attrs := []any{"graph", req.Graph, "program", req.Program, "query", req.Query, "ms", d.Seconds() * 1e3}
		switch {
		case err != nil:
			lg.Warn("query failed", append(attrs, "err", err.Error())...)
		case cached:
			lg.Info("query served", append(attrs, "cached", true)...)
		default:
			lg.Info("query served", append(attrs, "cached", false, "run", resp.TraceID, "supersteps", resp.Stats.Supersteps)...)
		}
	}
	return resp, err
}

func (s *Server) query(ctx context.Context, req QueryRequest, start time.Time) (*QueryResponse, bool, error) {
	e, err := engine.Lookup(req.Program)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	pq, err := e.Parse(req.Query)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if s.stratErr != nil {
		return nil, false, s.stratErr
	}
	rg, err := s.resident(req.Graph)
	if err != nil {
		return nil, false, err
	}

	key := cacheKey{graph: req.Graph, gen: rg.gen, program: req.Program, canonical: pq.Canonical}
	resp := func(epoch uint64, cached bool, v *cacheVal) *QueryResponse {
		return &QueryResponse{Graph: req.Graph, Epoch: epoch, Program: req.Program,
			Canonical: pq.Canonical, Cached: cached, Result: v.result, Stats: v.stats, answer: v}
	}

	// Fast path: answer from the cache at the current epoch without
	// consuming a run slot.
	if !req.NoCache {
		rg.mu.RLock()
		key.epoch = rg.epoch
		rg.mu.RUnlock()
		if v, ok := s.cache.get(key); ok {
			s.flight.Event("cache-hit", req.Program+" "+pq.Canonical)
			return resp(key.epoch, true, v), true, nil
		}
	}

	ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
	defer cancel()
	if err := s.sched.acquire(ctx); err != nil {
		return nil, false, err
	}

	// The run holds rg.mu for read end to end: a mutation can bump the
	// epoch before or after this block, never during it, so the result is
	// cached under exactly the epoch it was computed against. The run
	// inherits the request context, so a request that times out or
	// disconnects takes its engine run down with it at the next superstep
	// barrier; only completed runs reach the cache.
	//
	// Every engine run is flight-recorded: the recorder rides the run
	// context, the engine fills it in, and the snapshot lands in the
	// retention ring behind GET /debug/runs/{id} whether the run completed
	// or failed — failed runs are exactly the ones worth inspecting.
	rec := trace.NewRecorder(s.flight.NextID())
	runCtx := trace.WithRecorder(ctx, rec)
	if s.cfg.Logger != nil {
		runCtx = trace.WithLogger(runCtx, s.cfg.Logger)
	}
	type outcome struct {
		epoch   uint64
		cached  bool
		answer  *cacheVal
		traceID string
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		defer s.sched.release()
		rg.mu.RLock()
		defer rg.mu.RUnlock()
		key.epoch = rg.epoch
		// Re-check under the run epoch: an identical query may have landed
		// while we were queued.
		if !req.NoCache {
			if v, ok := s.cache.get(key); ok {
				s.flight.Event("cache-hit", req.Program+" "+pq.Canonical)
				rec.Release() // no run happened; recycle the unused recorder
				done <- outcome{epoch: key.epoch, cached: true, answer: v}
				return
			}
		}
		layout, err := s.layoutFor(rg, pq.Hops, e)
		var runner engine.ResidentRunner
		if err == nil {
			runner, err = e.Resident(layout, engine.Options{Recover: s.cfg.Recover, Fault: s.cfg.Fault})
		}
		if err != nil {
			rec.Release()
			done <- outcome{err: err}
			return
		}
		res, st, err := runner.RunParsed(runCtx, pq)
		if err != nil {
			rec.Event("error", err.Error())
			s.flight.Add(rec)
			done <- outcome{err: err}
			return
		}
		traceID := rec.ID()
		s.flight.Add(rec)
		s.serving.ObserveRun(req.Program, st)
		rs := RunStats{Supersteps: st.Supersteps, Messages: st.Messages, Bytes: st.Bytes, WallMs: st.WallTime.Seconds() * 1e3}
		v := &cacheVal{result: res, stats: rs}
		s.cache.put(key, v)
		done <- outcome{epoch: key.epoch, answer: v, traceID: traceID}
	}()

	select {
	case out := <-done:
		if out.err != nil {
			return nil, false, out.err
		}
		r := resp(out.epoch, out.cached, out.answer)
		r.TraceID = out.traceID
		return r, out.cached, nil
	case <-ctx.Done():
		return nil, false, fmt.Errorf("server: query %s/%s gave up after %v: %w", req.Program, pq.Canonical, time.Since(start).Round(time.Millisecond), ctx.Err())
	}
}

// Mutate applies a batch of edge insertions and deletions to a named graph
// through the engine's continuous-query session machinery and bumps the
// graph's epoch: every cached result keyed to earlier epochs becomes
// unreachable, and resident layouts are dropped. The hops-0 slot starts over
// holding the session's layout, which the batch spliced, so a cut-invariant
// program's next miss runs without partitioning; any other program or
// depth, and every miss after a batch that broke the session or whose
// session has no hops-0 layout, cuts the mutated graph afresh. The mutation
// flows through a retained session of the requested program (default CC with
// its parameterless query), whose incrementally refreshed answer is primed
// into the cache under the new epoch — continuous updates keep that query
// warm instead of merely invalidating it. Mutating under a different
// (program, query) drops the retained session and seeds a new one. Mutations
// require a directed graph, as sessions do. A batch the program's validation
// rejects (Entry.Validate) is ErrBadQuery and changes nothing, on disk or in
// memory.
func (s *Server) Mutate(ctx context.Context, name, program, query string, edges []EdgeJSON) (*MutateResponse, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("%w: empty edge list", ErrBadQuery)
	}
	if program == "" {
		program = "cc"
	}
	e, err := engine.Lookup(program)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	pq, err := e.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	rg, err := s.resident(name)
	if err != nil {
		return nil, err
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	ups := make([]engine.EdgeUpdate, len(edges))
	for i, e := range edges {
		ups[i] = engine.EdgeUpdate{From: graph.ID(e.From), To: graph.ID(e.To), W: e.W, Label: e.Label, Del: e.Del}
	}
	// Validate first: a rejected batch is bad input (HTTP 400) that changes
	// nothing — not the epoch, the journal or the retained session.
	if err := e.Validate(rg.g, pq, ups); err != nil {
		return nil, fmt.Errorf("%w: mutating %q: %v", ErrBadQuery, name, err)
	}
	// The session must exist before the batch is journaled: session creation
	// can fail for infrastructure reasons (cancellation included), and a
	// journaled batch must land.
	if err := s.ensureSessionLocked(ctx, rg, e, program, pq); err != nil {
		return nil, err
	}
	if rg.ds != nil {
		// Write-ahead: journal and fsync the batch before the session
		// mutates, so a crash at any later point replays it on restart. Once
		// the record is durable the batch runs to completion even if the
		// client hangs up — journal and memory must not diverge.
		rec := store.Record{PreEpoch: rg.epoch, Program: program, Query: pq.Canonical, Updates: ups}
		if err := rg.ds.Append(rec); err != nil {
			rg.appendFailures++
			s.publishDurability(rg)
			return nil, fmt.Errorf("server: journaling mutation for %q: %w", name, err)
		}
		ctx = context.WithoutCancel(ctx)
	}
	s.flight.Event("session-update", fmt.Sprintf("%s %s/%s: %d edge updates", name, program, pq.Canonical, len(ups)))
	res, st, err := rg.sess.Update(ctx, ups)
	// The batch passed the validation Update runs first, so the session has
	// spliced all of it into its graph before any program hook ran: the
	// batch lands even if it broke the session partway, whose retained state
	// is then dropped — the next batch starts a fresh session over the graph.
	rg.epoch++
	s.cache.dropBefore(rg.name, rg.gen, rg.epoch)
	rg.g = rg.sess.Graph()
	// The session's layout, which the batch updated in place as IncEval does
	// rather than re-partitioning, serves the hops-0 slot under every
	// strategy. A broken or patching session offers none, and an expanded
	// one (hops > 0) is not the hops-0 slot's.
	layouts := make(map[int]*layoutSlot)
	rg.lmu.Lock()
	if l := rg.sess.Layout(); err == nil && l != nil && l.Hops == 0 {
		layouts[0] = &layoutSlot{session: l}
	}
	rg.layouts = layouts
	rg.lmu.Unlock()
	if rg.ds != nil {
		s.publishDurability(rg)
	}
	if err != nil {
		rg.sess = nil
		return nil, fmt.Errorf("server: mutating %q: %w", name, err)
	}
	s.serving.ObserveRun(program, st)
	if lg := s.cfg.Logger; lg != nil {
		lg.Info("mutation applied", "graph", name, "program", program, "edges", len(ups), "epoch", rg.epoch, "supersteps", st.Supersteps)
	}
	rs := RunStats{Supersteps: st.Supersteps, Messages: st.Messages, Bytes: st.Bytes, WallMs: st.WallTime.Seconds() * 1e3}
	// Prime the fresh answer under the key an identical query computes. It
	// carries this instance's generation: if AddGraph replaced the name
	// meanwhile, the new graph cannot hit this entry.
	s.cache.put(cacheKey{graph: name, gen: rg.gen, epoch: rg.epoch, program: program, canonical: pq.Canonical}, &cacheVal{result: res, stats: rs})
	return &MutateResponse{Graph: name, Epoch: rg.epoch, Program: program, Canonical: pq.Canonical, Stats: rs}, nil
}

// ensureSessionLocked readies the retained update session for (program,
// canonical query), creating it (initial fixpoint included) when absent or
// when the retained one answers a different query. Callers hold rg.mu for
// write.
func (s *Server) ensureSessionLocked(ctx context.Context, rg *residentGraph, e engine.Entry, program string, pq engine.ParsedQuery) error {
	if rg.sess != nil && (rg.sessProg != program || rg.sessCanon != pq.Canonical) {
		// the retained state answers a different query; start over below
		rg.sess = nil
	}
	if rg.sess != nil {
		return nil
	}
	if s.stratErr != nil {
		return s.stratErr
	}
	sess, _, _, err := e.Session(ctx, rg.g, engine.Options{Workers: s.cfg.Workers, Strategy: s.strat}, pq)
	if err != nil {
		return fmt.Errorf("server: starting %s update session for %q: %w", program, rg.name, err)
	}
	rg.sess, rg.sessProg, rg.sessCanon = sess, program, pq.Canonical
	return nil
}
