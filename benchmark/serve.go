package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/server"
	"grape/internal/store"
)

// The two serve workloads drive server.New's HTTP handler over a real
// loopback socket with runtime.NumCPU() keep-alive clients in closed loop:
// a client sends its next request when the previous one is answered.

// serveConfig is the server both serve workloads run: the stock
// configuration at 8 workers on the spatial strategy (what grape-bench's
// serve rows used), so road queries run on the layout the engine workloads
// measure.
func serveConfig() server.Config { return server.Config{Workers: fragments, Strategy: "2d"} }

// loopback is a server.Server behind a real TCP listener on 127.0.0.1.
type loopback struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func serveLoopback(srv *server.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	return l, nil
}

// stop shuts the HTTP server down, waits for its goroutine, and closes the
// server's durable state.
func (l *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	<-l.done
	return errors.Join(err, l.srv.Close())
}

// client is one closed-loop HTTP caller with its own connection pool. It is
// not internal/server/client: the harness needs the status code and the raw
// body, undecoded, when the clock stops.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

type clientSet []*client

func newClients(n int, base string, traced bool) clientSet {
	cs := make(clientSet, n)
	for i := range cs {
		cs[i] = &client{base: base, hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		}}
		if traced {
			cs[i].tr = &tracer{lane: i}
		}
	}
	return cs
}

func (cs clientSet) close() {
	for _, c := range cs {
		c.hc.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// spans merges the clients' tracers.
func (cs clientSet) spans() []span {
	ts := make([]*tracer, len(cs))
	for i, c := range cs {
		ts[i] = c.tr
	}
	return mergeSpans(ts)
}

// reply is one HTTP exchange: the status, the raw body, and the
// client-timed latency (request written to body fully read).
type reply struct {
	status int
	body   []byte
	ms     float64
	err    error
}

func (c *client) post(ctx context.Context, path string, body []byte) reply {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: data, err: err, ms: time.Since(t0).Seconds() * 1e3}
}

// answer is the part of a served /query or /update reply the harness reads.
type answer struct {
	Epoch  uint64          `json:"epoch"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Stats  server.RunStats `json:"stats"`
}

// checkAnswer verifies one /query reply: answered 200, at the expected
// epoch, from the cache or not as the workload promises, and with a result
// that digests as expected.
func checkAnswer(r reply, program string, epoch uint64, cached bool, want uint64) (*answer, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var a answer
	if err := json.Unmarshal(r.body, &a); err != nil {
		return nil, err
	}
	if a.Epoch != epoch || a.Cached != cached {
		return &a, fmt.Errorf("answered at epoch %d cached=%v, want epoch %d cached=%v", a.Epoch, a.Cached, epoch, cached)
	}
	res, err := decodeResult(program, a.Result)
	if err != nil {
		return &a, err
	}
	if digest(res) != want {
		return &a, fmt.Errorf("wrong %s answer", program)
	}
	return &a, nil
}

// servedQuery is one fixed /query request with its pre-encoded body and the
// digest its answer must have.
type servedQuery struct {
	req  server.QueryRequest
	body []byte // req, encoded
	want uint64
}

func newServedQuery(g *graph.Graph, graphName, program, query string, nocache bool) (servedQuery, error) {
	e, err := engine.Lookup(program)
	if err != nil {
		return servedQuery{}, err
	}
	pq, err := e.Parse(query)
	if err != nil {
		return servedQuery{}, err
	}
	want, err := expected(g, pq.Query, nil)
	if err != nil {
		return servedQuery{}, err
	}
	req := server.QueryRequest{Graph: graphName, Program: program, Query: query, NoCache: nocache}
	body, err := json.Marshal(req)
	return servedQuery{req: req, body: body, want: want}, err
}

// fillServing derives the server's own view of a script from its /stats
// counters before and after it.
func fillServing(L map[string]float64, before, after metrics.ServingSnapshot) {
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	rejected := float64(after.Rejected - before.Rejected)
	queries := float64(after.Queries - before.Queries)
	L["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["server.rejected_ratio"] = ratio(rejected, queries+rejected)
	L["server.handler_p50_ms"] = after.LatencyP50Ms
}

// ---------------------------------------------------------------------------
// serve-hot

type hotWorkload struct {
	road    *graph.Graph
	queries []servedQuery // 4 sssp sources + cc
	sc      scale
}

func (w *hotWorkload) name() string { return "serve-hot" }

func planHot(d *datasets, sc scale) (*hotWorkload, error) {
	w := &hotWorkload{road: d.road, sc: sc}
	add := func(program, query string) error {
		q, err := newServedQuery(d.road, "road", program, query, false)
		w.queries = append(w.queries, q)
		return err
	}
	for s := 0; s < sources; s++ {
		if err := add("sssp", fmt.Sprintf("source=%d", s)); err != nil {
			return nil, err
		}
	}
	return w, add("cc", "")
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func (w *hotWorkload) pass(ctx context.Context, traced, first bool) (p *passResult, err error) {
	p = &passResult{traced: traced, layers: map[string]float64{}}
	road := w.road.Clone() // the server owns what AddGraph is handed

	t0 := time.Now()
	srv := server.New(serveConfig())
	if err := srv.AddGraph("road", road); err != nil {
		return nil, err
	}
	lb, err := serveLoopback(srv)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, lb.stop()) }()
	clients := newClients(runtime.NumCPU(), lb.base, traced)
	defer clients.close()
	// Warm-up: every query once, a miss that builds the layout and fills
	// the cache, so every op of the script is a hit.
	for _, q := range w.queries {
		if _, err := checkAnswer(clients[0].post(ctx, "/query", q.body), q.req.Program, 1, false, q.want); err != nil {
			return nil, fmt.Errorf("serve-hot: warm-up %s: %w", q.req.Program, err)
		}
	}
	p.setupS = time.Since(t0).Seconds()

	// The script. A hit's body is byte-identical every time it is served, so
	// a client keeps one copy per distinct body (keyed by checksum) and the
	// bodies are verified after the clock stops.
	type hotOp struct {
		query int
		sum   uint64
		r     reply
	}
	ops := make([][]hotOp, len(clients))
	bodies := make([]map[uint64][]byte, len(clients))
	before := srv.Stats()
	p.timeScript(func() {
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *client) {
				defer wg.Done()
				ops[ci] = make([]hotOp, 0, w.sc.hotOps)
				bodies[ci] = make(map[uint64][]byte)
				for i := 0; i < w.sc.hotOps; i++ {
					qi := (ci + i) % len(w.queries)
					op := ci*w.sc.hotOps + i
					root := c.tr.begin(spanOp, -1, op)
					sp := c.tr.begin(spanHit, root, op)
					r := c.post(ctx, "/query", w.queries[qi].body)
					c.tr.end(sp)
					c.tr.end(root)
					sum := crc64.Checksum(r.body, crcTable)
					if _, seen := bodies[ci][sum]; seen {
						r.body = nil
					} else {
						bodies[ci][sum] = r.body
					}
					ops[ci] = append(ops[ci], hotOp{query: qi, sum: sum, r: r})
				}
			}(ci, c)
		}
		wg.Wait()
	})
	after := srv.Stats()

	var respKB []float64
	for ci := range clients {
		verdict := make(map[uint64]error) // per distinct (query, body)
		for _, o := range ops[ci] {
			key := mix(o.sum, uint64(o.query))
			verr, done := verdict[key]
			if !done {
				r := o.r
				r.body = bodies[ci][o.sum]
				q := w.queries[o.query]
				_, verr = checkAnswer(r, q.req.Program, 1, true, q.want)
				verdict[key] = verr
				if verr != nil {
					logf("serve-hot: %s op failed: %v", q.req.Program, verr)
				}
			}
			p.ops = append(p.ops, opRec{ms: o.r.ms, ok: verr == nil})
			respKB = append(respKB, float64(len(bodies[ci][o.sum]))/1e3)
		}
	}
	ops, bodies = nil, nil
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(srv) // graph, layout, cache count as live system state

	if traced {
		p.spans = clients.spans()
		L := p.layers
		L["server.hit_ms"] = percentile(p.latencies(-1), 0.5)
		L["server.response_kb"] = ratio(sum(respKB), float64(len(respKB)))
		fillServing(L, before, after)
		// The same hits without HTTP: Server.Query called in-process.
		var direct []float64
		for i := 0; i < w.sc.directHits; i++ {
			t := time.Now()
			resp, err := srv.Query(ctx, w.queries[i%len(w.queries)].req)
			direct = append(direct, time.Since(t).Seconds()*1e3)
			if err != nil || !resp.Cached {
				return nil, fmt.Errorf("serve-hot: direct hit failed: err=%v", err)
			}
		}
		L["server.hit_direct_ms"] = percentile(direct, 0.5)
		L["server.http_ms"] = L["server.hit_ms"] - L["server.hit_direct_ms"]
		L["ledger.coverage_ratio"] = coverage(p.spans)
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// serve-churn

// churnGraph is one of the three graphs of serve-churn: its incremental
// session's query, the other class read nocache, the update stream, and the
// expected answers per epoch, all fixed at plan time.
type churnGraph struct {
	name                string
	base                *graph.Graph
	sessProg, sessQuery string
	missProg, missQuery string
	updates             [][]byte      // batch → POST /update body; batch 0 is the warm-up
	hit, miss           []servedQuery // batch → the two reads, expected at the epoch after it
	sessPQ              engine.ParsedQuery
	sessEntry           engine.Entry
}

type churnWorkload struct {
	graphs  []*churnGraph
	sc      scale
	tmpRoot string
}

func (w *churnWorkload) name() string { return "serve-churn" }

// epochAfter is the graph epoch once batch b (0-based) has been applied:
// AddGraph publishes epoch 1 and every batch bumps it by one.
func epochAfter(b int) uint64 { return uint64(b) + 2 }

// planChurn fixes the update streams and computes, by replaying them on a
// shadow graph with internal/seq, the answer both reads must give at every
// epoch. One writer per graph keeps gen.UpdateStream's order, so the epoch a
// batch produces is known in advance and verified against the server's.
func planChurn(d *datasets, sc scale, tmpRoot string) (*churnWorkload, error) {
	w := &churnWorkload{sc: sc, tmpRoot: tmpRoot, graphs: []*churnGraph{
		{name: "road", base: d.road, sessProg: "sssp", sessQuery: "source=0", missProg: "cc"},
		{name: "social", base: d.social, sessProg: "cc", missProg: "sssp", missQuery: "source=0"},
		{name: "commerce", base: d.commerce, sessProg: "subiso", sessQuery: "pattern=follows-recommend", missProg: "sim", missQuery: "pattern=follows-recommend"},
	}}
	for gi, cg := range w.graphs {
		var err error
		if cg.sessEntry, err = engine.Lookup(cg.sessProg); err != nil {
			return nil, err
		}
		if cg.sessPQ, err = cg.sessEntry.Parse(cg.sessQuery); err != nil {
			return nil, err
		}
		shadow := cg.base.Clone()
		stream := gen.UpdateStream(cg.base, gen.StreamConfig{Batches: sc.churnRounds + 1, BatchSize: 16, DeleteP: 0.4, Seed: d.seed + int64(gi)})
		for _, batch := range stream {
			edges := make([]server.EdgeJSON, len(batch))
			for i, u := range batch {
				edges[i] = server.EdgeJSON{From: int64(u.From), To: int64(u.To), W: u.W, Label: u.Label, Del: u.Del}
				if !u.Del {
					shadow.AddLabeledEdge(u.From, u.To, u.W, u.Label)
				} else if _, ok := shadow.RemoveEdge(u.From, u.To, u.Label); !ok {
					return nil, fmt.Errorf("serve-churn: %s stream deletes a dead edge %d->%d", cg.name, u.From, u.To)
				}
			}
			body, err := json.Marshal(server.MutateRequest{Graph: cg.name, Program: cg.sessProg, Query: cg.sessQuery, Edges: edges})
			if err != nil {
				return nil, err
			}
			cg.updates = append(cg.updates, body)
			shadow.Freeze() // seq runs 2-3x faster on the CSR form; the next batch thaws it again
			hit, err := newServedQuery(shadow, cg.name, cg.sessProg, cg.sessQuery, false)
			if err != nil {
				return nil, err
			}
			miss, err := newServedQuery(shadow, cg.name, cg.missProg, cg.missQuery, true)
			if err != nil {
				return nil, err
			}
			cg.hit, cg.miss = append(cg.hit, hit), append(cg.miss, miss)
		}
	}
	return w, nil
}

// round is one op of serve-churn: POST /update, then the session's query (a
// primed hit at the new epoch), then the other class nocache (a miss).
type round struct {
	graph, batch   int
	upd, hit, miss reply
}

func (r *round) ms() float64 { return r.upd.ms + r.hit.ms + r.miss.ms }

func (w *churnWorkload) doRound(ctx context.Context, c *client, gi, batch, op int) round {
	cg := w.graphs[gi]
	root := c.tr.begin(spanOp, -1, op)
	sp := c.tr.begin(spanUpdate, root, op)
	r := round{graph: gi, batch: batch, upd: c.post(ctx, "/update", cg.updates[batch])}
	c.tr.end(sp)
	sp = c.tr.begin(spanHit, root, op)
	r.hit = c.post(ctx, "/query", cg.hit[batch].body)
	c.tr.end(sp)
	sp = c.tr.begin(spanMiss, root, op)
	r.miss = c.post(ctx, "/query", cg.miss[batch].body)
	c.tr.end(sp)
	c.tr.end(root)
	return r
}

// verify checks a round against the plan and returns the engine traffic its
// update and its miss reported.
func (w *churnWorkload) verify(r *round) (st server.RunStats, err error) {
	cg := w.graphs[r.graph]
	epoch := epochAfter(r.batch)
	if r.upd.err != nil {
		return st, r.upd.err
	}
	if r.upd.status != http.StatusOK {
		return st, fmt.Errorf("update: HTTP %d: %s", r.upd.status, bytes.TrimSpace(r.upd.body))
	}
	var up server.MutateResponse
	if err := json.Unmarshal(r.upd.body, &up); err != nil {
		return st, err
	}
	st = up.Stats
	if up.Epoch != epoch {
		return st, fmt.Errorf("update acknowledged at epoch %d, want %d", up.Epoch, epoch)
	}
	if _, err := checkAnswer(r.hit, cg.sessProg, epoch, true, cg.hit[r.batch].want); err != nil {
		return st, fmt.Errorf("hit: %w", err)
	}
	miss, err := checkAnswer(r.miss, cg.missProg, epoch, false, cg.miss[r.batch].want)
	if miss != nil {
		st.Supersteps += miss.Stats.Supersteps
		st.Messages += miss.Stats.Messages
		st.Bytes += miss.Stats.Bytes
	}
	if err != nil {
		return st, fmt.Errorf("miss: %w", err)
	}
	return st, nil
}

func (w *churnWorkload) pass(ctx context.Context, traced, first bool) (p *passResult, err error) {
	p = &passResult{traced: traced, layers: map[string]float64{}}
	L := p.layers
	clones := make([]*graph.Graph, len(w.graphs))
	var edges int
	for i, cg := range w.graphs {
		clones[i] = cg.base.Clone()
		edges += cg.base.NumEdges()
	}
	dir, err := os.MkdirTemp(w.tmpRoot, "serve-churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg := serveConfig()
	cfg.Durable = st
	srv := server.New(cfg)
	lb, err := serveLoopback(srv)
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	defer func() { err = errors.Join(err, lb.stop()) }() // a second stop is a no-op
	tAdd := time.Now()
	for i, cg := range w.graphs {
		if err := srv.AddGraph(cg.name, clones[i]); err != nil {
			return nil, err
		}
	}
	L["store.snapshot_write_ms"] = time.Since(tAdd).Seconds() * 1e3
	clients := newClients(runtime.NumCPU(), lb.base, traced)
	defer clients.close()
	// Warm-up: batch 0 on every graph opens its session (initial fixpoint)
	// and builds the layouts the reads run on.
	for gi, cg := range w.graphs {
		untraced := &client{hc: clients[0].hc, base: lb.base}
		r := w.doRound(ctx, untraced, gi, 0, -1)
		if _, err := w.verify(&r); err != nil {
			return nil, fmt.Errorf("serve-churn: warm-up on %s: %w", cg.name, err)
		}
	}
	p.setupS = time.Since(t0).Seconds()
	L["store.snapshot_bytes_per_edge"] = ratio(float64(snapshotBytes(dir)), float64(edges))

	// The script: graphs are dealt round-robin to the clients, so each graph
	// has exactly one writer; a client alternates between its graphs.
	rounds := make([][]round, len(clients))
	before := srv.Stats()
	p.timeScript(func() {
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *client) {
				defer wg.Done()
				for b := 1; b <= w.sc.churnRounds; b++ {
					for gi := ci; gi < len(w.graphs); gi += len(clients) {
						rounds[ci] = append(rounds[ci], w.doRound(ctx, c, gi, b, (b-1)*len(w.graphs)+gi))
					}
				}
			}(ci, c)
		}
		wg.Wait()
	})
	after := srv.Stats()

	var updMS, hitMS, missMS, respKB []float64
	for ci := range rounds {
		for i := range rounds[ci] {
			r := &rounds[ci][i]
			st, verr := w.verify(r)
			if verr != nil {
				logf("serve-churn: round %d on %s failed: %v", r.batch, w.graphs[r.graph].name, verr)
			}
			p.ops = append(p.ops, opRec{kind: r.graph, ms: r.ms(), ok: verr == nil, commKB: float64(st.Bytes) / 1e3})
			p.commBytes += st.Bytes
			p.supersteps += int64(st.Supersteps)
			p.msgs += st.Messages
			updMS, hitMS, missMS = append(updMS, r.upd.ms), append(hitMS, r.hit.ms), append(missMS, r.miss.ms)
			respKB = append(respKB, float64(len(r.hit.body))/1e3)
		}
	}
	rounds = nil
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(srv) // graphs, sessions, layouts, cache count as live system state

	if traced {
		p.spans = clients.spans()
		L["server.update_ms"] = percentile(updMS, 0.5)
		L["server.hit_ms"] = percentile(hitMS, 0.5)
		L["server.miss_ms"] = percentile(missMS, 0.5)
		L["server.response_kb"] = ratio(sum(respKB), float64(len(respKB)))
		fillServing(L, before, after)
		var journal int64
		for _, d := range after.Durable {
			journal += d.JournalBytes
		}
		L["store.journal_bytes_per_update"] = ratio(float64(journal), float64(len(w.graphs)*(w.sc.churnRounds+1)))
		L["ledger.coverage_ratio"] = coverage(p.spans)
	}
	if !first {
		return p, nil
	}

	// Once per invocation: kill nothing, but restart — stop the server,
	// reopen the data directory in a fresh server, and require the recovered
	// epochs and answers to equal the last acknowledged ones.
	if err := lb.stop(); err != nil {
		return nil, err
	}
	recoverMS, err := w.checkRecovery(ctx, dir)
	if err != nil {
		return nil, fmt.Errorf("serve-churn: %w", err)
	}
	L["store.recover_ms"] = recoverMS
	if traced {
		// What opening the three incremental sessions costs on its own (in a
		// pass it hides inside the warm-up's first update).
		var openMS float64
		for _, cg := range w.graphs {
			g := cg.base.Clone()
			t := time.Now()
			if _, _, _, err := cg.sessEntry.Session(ctx, g, engine.Options{Workers: fragments}, cg.sessPQ); err != nil {
				return nil, err
			}
			openMS += time.Since(t).Seconds() * 1e3
		}
		L["engine.session_open_ms"] = openMS
	}
	return p, nil
}

// checkRecovery reopens dir in a fresh server, times RecoverAll, and checks
// every graph came back at its last acknowledged epoch with the answer the
// plan expects there.
func (w *churnWorkload) checkRecovery(ctx context.Context, dir string) (recoverMS float64, err error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	cfg := serveConfig()
	cfg.Durable = st
	srv := server.New(cfg)
	defer func() { err = errors.Join(err, srv.Close()) }()
	t0 := time.Now()
	infos, err := srv.RecoverAll(ctx)
	if err != nil {
		return 0, err
	}
	recoverMS = time.Since(t0).Seconds() * 1e3
	last := w.sc.churnRounds
	for _, cg := range w.graphs {
		var info *server.RecoveryInfo
		for i := range infos {
			if infos[i].Graph == cg.name {
				info = &infos[i]
			}
		}
		if info == nil || info.Epoch != epochAfter(last) || info.Damage != "" {
			return 0, fmt.Errorf("recovery of %s: got %+v, want epoch %d undamaged", cg.name, info, epochAfter(last))
		}
		resp, err := srv.Query(ctx, server.QueryRequest{Graph: cg.name, Program: cg.sessProg, Query: cg.sessQuery})
		if err != nil {
			return 0, fmt.Errorf("recovery of %s: %w", cg.name, err)
		}
		if resp.Epoch != epochAfter(last) || digest(resp.Result) != cg.hit[last].want {
			return 0, fmt.Errorf("recovery of %s: recovered answer at epoch %d differs from the last acknowledged one", cg.name, resp.Epoch)
		}
	}
	return recoverMS, nil
}

// snapshotBytes sums the sizes of the snapshot files under a store root.
func snapshotBytes(root string) (n int64) {
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".grs") {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
