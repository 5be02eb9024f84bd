package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/trace"
	"grape/internal/transport"
)

// The three engine workloads share one op model: an op is one query of one
// case, answered by one engine run. They differ in what the run includes —
// oneshot-cold partitions and builds the layout inside the op, resident-bus
// runs on layouts prebuilt in set-up, resident-wire runs the same script on
// the same layouts over a fresh loopback socket session per op.
type engineMode int

const (
	modeCold engineMode = iota
	modeBus
	modeWire
)

// engCase is one (class, query, graph, strategy) the script draws ops from.
type engCase struct {
	kind  int // index into classes
	query string
	g     *graph.Graph
	strat partition.Strategy
	entry engine.Entry
	pq    engine.ParsedQuery
	want  uint64 // digest every answer must have
}

type layoutKey struct {
	g     *graph.Graph
	strat string
	hops  int
}

func (c *engCase) layoutKey() layoutKey { return layoutKey{c.g, c.strat.Name(), c.pq.Hops} }

type engineWorkload struct {
	wname  string
	mode   engineMode
	cases  []*engCase
	script []int // op → case
}

func (w *engineWorkload) name() string { return w.wname }

// sources are the sssp sources the scripts rotate through (the same four
// grape-bench's serve rows use).
const sources = 4

// planEngine fixes an engine workload's cases, ground truth and op script.
// Nothing here is timed.
func planEngine(ctx context.Context, name string, mode engineMode, d *datasets, sc scale) (*engineWorkload, error) {
	spatial := partition.TwoD{Cols: sc.roadSide}
	type spec struct {
		class, query string
		g            *graph.Graph
		strat        partition.Strategy
	}
	var specs []spec
	for s := 0; s < sources; s++ {
		specs = append(specs, spec{"sssp", fmt.Sprintf("source=%d", s), d.road, spatial})
	}
	specs = append(specs,
		spec{"cc", "", d.road, spatial},
		spec{"sim", "pattern=follows-recommend", d.commerce, partition.Hash{}})
	if mode != modeCold {
		specs = append(specs,
			spec{"subiso", "pattern=follows-recommend", d.commerce, partition.Hash{}},
			spec{"keyword", "k=db,graph bound=4", d.social, partition.Hash{}},
			spec{"cf", "epochs=10", d.ratings, partition.Hash{}},
			spec{"tricount", "", d.social, partition.Hash{}})
	}
	w := &engineWorkload{wname: name, mode: mode}
	for _, s := range specs {
		c := &engCase{query: s.query, g: s.g, strat: s.strat}
		for k, class := range classes {
			if class == s.class {
				c.kind = k
			}
		}
		var err error
		if c.entry, err = engine.Lookup(s.class); err != nil {
			return nil, err
		}
		if c.pq, err = c.entry.Parse(s.query); err != nil {
			return nil, err
		}
		// One untimed reference run: the classes whose answer is not
		// bit-identical to seq's are checked against seq through it.
		ref, _, err := c.entry.Run(ctx, c.g, engine.Options{Workers: fragments, Strategy: c.strat}, c.query)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run of %s %q: %w", name, s.class, s.query, err)
		}
		if c.want, err = expected(c.g, c.pq.Query, ref); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w.cases = append(w.cases, c)
	}
	// The script: rounds of every class, sssp rotating its sources, in a
	// fixed seeded shuffle. In strict round-robin order the garbage
	// collector's cycle beats against the round, so that one pass has it land
	// on one class's ops and the next pass on another's; shuffled, every
	// class meets it equally often in every pass.
	rounds := sc.residentRounds
	if mode == modeCold {
		rounds = sc.coldTriples
	}
	for r := 0; r < rounds; r++ {
		w.script = append(w.script, r%sources)
		for i := sources; i < len(w.cases); i++ {
			w.script = append(w.script, i)
		}
	}
	rand.New(rand.NewSource(d.seed)).Shuffle(len(w.script), func(i, j int) {
		w.script[i], w.script[j] = w.script[j], w.script[i]
	})
	return w, nil
}

// timeSeq is the sequential baseline: per class, the median time of
// single-threaded internal/seq runs of the script's queries (three each).
func (w *engineWorkload) timeSeq() (map[int]float64, error) {
	ms := make(map[int][]float64)
	for _, c := range w.cases {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := seqAnswer(c.g, c.pq.Query); err != nil {
				return nil, err
			}
			ms[c.kind] = append(ms[c.kind], time.Since(t0).Seconds()*1e3)
		}
	}
	out := make(map[int]float64, len(ms))
	for k, xs := range ms {
		out[k] = median(xs)
	}
	return out, nil
}

// layoutSet is the prebuilt layouts of a pass, with what building them cost.
type layoutSet struct {
	layouts  map[layoutKey]*partition.Layout
	assignMS float64
	buildMS  float64
	allocMB  float64   // heap allocated inside partition.Build / BuildExpanded
	cut      []float64 // cut-edge ratio per layout (partition.Measure)
}

func buildLayout(g *graph.Graph, asg *partition.Assignment, hops int) *partition.Layout {
	if hops > 0 {
		return partition.BuildExpanded(g, asg, hops)
	}
	return partition.Build(g, asg)
}

// buildLayouts cuts one layout per distinct (graph, strategy, hops) of the
// cases, through the partition layer's public steps.
func (w *engineWorkload) buildLayouts() (*layoutSet, error) {
	ls := &layoutSet{layouts: make(map[layoutKey]*partition.Layout)}
	for _, c := range w.cases {
		k := c.layoutKey()
		if ls.layouts[k] != nil {
			continue
		}
		t0 := time.Now()
		asg, err := c.strat.Partition(c.g, fragments)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		a0 := allocatedMB()
		ls.layouts[k] = buildLayout(c.g, asg, k.hops)
		ls.allocMB += allocatedMB() - a0
		ls.assignMS += t1.Sub(t0).Seconds() * 1e3
		ls.buildMS += time.Since(t1).Seconds() * 1e3
		ls.cut = append(ls.cut, partition.Measure(k.strat, asg).CutFraction)
	}
	return ls, nil
}

// fragCodec replays the fragment wire codec over every fragment of the
// layouts — what a socket session ships at set-up — and returns the encode
// and decode time in ms and the encoded size in KB.
func (ls *layoutSet) fragCodec() (encMS, decMS, wireKB float64, err error) {
	for _, l := range ls.layouts {
		for _, f := range l.Fragments {
			t0 := time.Now()
			buf := partition.AppendFragment(nil, f)
			t1 := time.Now()
			if _, _, err := partition.DecodeFragment(buf); err != nil {
				return 0, 0, 0, err
			}
			encMS += t1.Sub(t0).Seconds() * 1e3
			decMS += time.Since(t1).Seconds() * 1e3
			wireKB += float64(len(buf)) / 1e3
		}
	}
	return encMS, decMS, wireKB, nil
}

// wireSession is one socket session: a listener on loopback, n in-process
// workers that each dial it and serve the worker half of the protocol (the
// cmd/grape-worker path), and the coordinator transport they handshook with.
type wireSession struct {
	tr   *transport.Coordinator
	ln   *transport.Listener
	wg   sync.WaitGroup
	errs []error
}

func openWireSession(ctx context.Context, n int) (*wireSession, error) {
	ln, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &wireSession{ln: ln, errs: make([]error, n)}
	addr := ln.Addr().String()
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			conn, err := transport.Dial("tcp", addr, 5*time.Second)
			if err != nil {
				s.errs[i] = err
				return
			}
			defer conn.Close()
			s.errs[i] = engine.ServeWorker(ctx, conn)
		}(i)
	}
	if s.tr, err = ln.AcceptWorkers(n, 10*time.Second); err != nil {
		ln.Close()
		s.wg.Wait()
		return nil, err
	}
	return s, nil
}

// close tears the session down, waits for every worker to exit and returns
// the first worker error.
func (s *wireSession) close() error {
	s.tr.Close()
	s.ln.Close()
	s.wg.Wait()
	return errors.Join(s.errs...)
}

// execOp answers one op and stops the clock before anything is verified.
// On a traced pass it records the layer calls as spans under the op and
// attaches the engine's flight recorder to the run; on oneshot-cold it then
// also replaces the single Entry.Run with its public decomposition
// (Strategy.Partition → partition.Build → run on that layout) so the parts
// are visible.
func (w *engineWorkload) execOp(ctx context.Context, c *engCase, env *engineEnv, tr *tracer, op int) (out opOutcome) {
	t0 := time.Now()
	root := tr.begin(spanOp, -1, op)
	var rec *trace.Recorder
	runCtx := ctx
	if tr != nil {
		rec = trace.NewRecorder(fmt.Sprintf("%s-%d", w.wname, op))
		runCtx = trace.WithRecorder(ctx, rec)
	}
	run := -1
	switch w.mode {
	case modeCold:
		opts := engine.Options{Workers: fragments, Strategy: c.strat}
		if tr != nil {
			sp := tr.begin(spanAssign, root, op)
			asg, perr := c.strat.Partition(c.g, fragments)
			tr.end(sp)
			if perr != nil {
				return opOutcome{err: perr}
			}
			sp = tr.begin(spanBuild, root, op)
			a0 := allocatedMB()
			opts.Layout = buildLayout(c.g, asg, c.pq.Hops)
			env.buildAllocMB += allocatedMB() - a0
			tr.end(sp)
		}
		run = tr.begin(spanRun, root, op)
		out.res, out.st, out.err = c.entry.Run(runCtx, c.g, opts, c.query)
		tr.end(run)
	case modeBus:
		run = tr.begin(spanRun, root, op)
		out.res, out.st, out.err = env.runners[c].RunParsed(runCtx, c.pq)
		tr.end(run)
	case modeWire:
		sp := tr.begin(spanSessionOpen, root, op)
		sess, serr := openWireSession(ctx, fragments)
		tr.end(sp)
		if serr != nil {
			return opOutcome{err: serr}
		}
		run = tr.begin(spanRun, root, op)
		out.res, out.st, out.err = c.entry.Run(runCtx, c.g, engine.Options{Workers: fragments, Layout: env.layouts.layouts[c.layoutKey()], Transport: sess.tr}, c.query)
		tr.end(run)
		sp = tr.begin(spanSessionEnd, root, op)
		if cerr := sess.close(); out.err == nil {
			out.err = cerr
		}
		tr.end(sp)
	}
	tr.end(root)
	out.ms = time.Since(t0).Seconds() * 1e3
	if rec != nil {
		out.skews = tr.addRun(rec.Snapshot(), run, op)
		rec.Release()
	}
	return out
}

// opOutcome is what execOp hands back: the answer and the run's stats, the
// op's latency, and on a traced pass the worker skew of each superstep.
type opOutcome struct {
	res   any
	st    *metrics.Stats
	ms    float64
	skews []float64
	err   error
}

// right reports whether the op answered, and answered c's query correctly.
func (o opOutcome) right(c *engCase) bool { return o.err == nil && digest(o.res) == c.want }

// engineEnv is the state one pass's set-up leaves for its script.
type engineEnv struct {
	layouts      *layoutSet                         // resident modes
	runners      map[*engCase]engine.ResidentRunner // resident-bus
	buildAllocMB float64                            // oneshot-cold traced: Σ over ops
}

// setUp is the system set-up of a pass: nothing for oneshot-cold, prebuilt
// layouts for the resident modes, and resident runners over them on the bus.
func (w *engineWorkload) setUp() (*engineEnv, error) {
	env := &engineEnv{}
	if w.mode == modeCold {
		return env, nil
	}
	var err error
	if env.layouts, err = w.buildLayouts(); err != nil {
		return nil, err
	}
	if w.mode == modeBus {
		env.runners, err = w.newRunners(env.layouts)
	}
	return env, err
}

func (w *engineWorkload) newRunners(ls *layoutSet) (map[*engCase]engine.ResidentRunner, error) {
	runners := make(map[*engCase]engine.ResidentRunner, len(w.cases))
	for _, c := range w.cases {
		r, err := c.entry.Resident(ls.layouts[c.layoutKey()], engine.Options{})
		if err != nil {
			return nil, err
		}
		runners[c] = r
	}
	return runners, nil
}

// warmUp runs every case once, untimed, and insists on the right answer.
func (w *engineWorkload) warmUp(ctx context.Context, env *engineEnv) error {
	for _, c := range w.cases {
		if out := w.execOp(ctx, c, env, nil, -1); !out.right(c) {
			return fmt.Errorf("%s: warm-up %s %q failed: err=%v", w.wname, classes[c.kind], c.query, out.err)
		}
	}
	return nil
}

func (w *engineWorkload) pass(ctx context.Context, traced, first bool) (*passResult, error) {
	p := &passResult{traced: traced, layers: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var liveBefore float64
	if traced && w.mode != modeCold {
		liveBefore = liveHeapMB()
	}
	t0 := time.Now()
	env, err := w.setUp()
	if err != nil {
		return nil, err
	}
	if traced && w.mode != modeCold {
		p.layers["partition.layout_live_mb"] = liveHeapMB() - liveBefore
	}
	if err := w.warmUp(ctx, env); err != nil {
		return nil, err
	}
	p.setupS = time.Since(t0).Seconds()

	var skews []float64
	p.ops = make([]opRec, 0, len(w.script))
	p.timeScript(func() {
		for i, ci := range w.script {
			c := w.cases[ci]
			var a0 float64
			if traced {
				a0 = allocatedMB()
			}
			out := w.execOp(ctx, c, env, tr, i)
			o := opRec{kind: c.kind, ms: out.ms, ok: out.right(c)}
			if traced {
				o.allocMB = allocatedMB() - a0
				skews = append(skews, out.skews...)
			}
			if st := out.st; st != nil {
				p.commBytes += st.Bytes
				p.supersteps += int64(st.Supersteps)
				p.msgs += st.Messages
				o.commKB = float64(st.Bytes) / 1e3
			}
			if !o.ok {
				logf("%s: op %d (%s %q) failed: err=%v", w.wname, i, classes[c.kind], c.query, out.err)
			}
			p.ops = append(p.ops, o)
		}
	})
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(env) // layouts and runners count as live system state
	if traced {
		p.spans = tr.spans
		if err := w.layerMetrics(ctx, p, env, skews, first); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// layerMetrics derives the per-layer numbers of a traced pass from its
// spans, its per-op records, and — once per invocation — the codec replay,
// the sequential baseline and (resident-wire) a bus twin of the script.
func (w *engineWorkload) layerMetrics(ctx context.Context, p *passResult, env *engineEnv, skews []float64, first bool) error {
	L := p.layers
	nops := float64(len(p.ops))
	total, self := totalTimes(p.spans), selfTimes(p.spans)
	perOpMS := func(d time.Duration) float64 { return ratio(d.Seconds()*1e3, nops) }

	ls := env.layouts
	if w.mode == modeCold {
		// Per op: the partition layer runs inside every cold op.
		L["partition.assign_ms"] = perOpMS(total[spanAssign])
		L["partition.build_ms"] = perOpMS(total[spanBuild])
		L["partition.build_alloc_mb"] = ratio(env.buildAllocMB, nops)
		if first {
			before := liveHeapMB()
			var err error
			if ls, err = w.buildLayouts(); err != nil {
				return err
			}
			L["partition.layout_live_mb"] = liveHeapMB() - before
		}
	} else {
		// Per set-up: the layouts are built once per pass.
		L["partition.assign_ms"] = ls.assignMS
		L["partition.build_ms"] = ls.buildMS
		L["partition.build_alloc_mb"] = ls.allocMB
	}
	if ls != nil {
		L["partition.cut_edge_ratio"] = ratio(sum(ls.cut), float64(len(ls.cut)))
		if first {
			enc, dec, kb, err := ls.fragCodec()
			if err != nil {
				return err
			}
			L["partition.frag_encode_ms"], L["partition.frag_decode_ms"], L["partition.frag_wire_kb"] = enc, dec, kb
		}
	}

	L["engine.fixpoint_ms"] = perOpMS(total[spanStep])
	L["engine.run_self_ms"] = perOpMS(self[spanRun])
	L["engine.compute_ms"] = perOpMS(total[spanCompute])
	L["engine.apply_ms"] = perOpMS(total[spanApply])
	L["engine.barrier_wait_ms"] = perOpMS(total[spanBarrierWait])
	L["engine.fold_route_ms"] = perOpMS(total[spanFoldRoute])
	L["engine.worker_skew"] = ratio(sum(skews), float64(len(skews)))
	L["ledger.coverage_ratio"] = coverage(p.spans)

	substrate := ".bus_p50_ms"
	if w.mode == modeWire {
		substrate = ".wire_p50_ms"
	}
	p50 := make(map[int]float64)
	for k, class := range classes {
		var alloc, comm []float64
		for _, o := range p.ops {
			if o.kind == k {
				alloc = append(alloc, o.allocMB)
				comm = append(comm, o.commKB)
			}
		}
		if len(alloc) == 0 {
			continue
		}
		p50[k] = percentile(p.latencies(k), 0.5)
		L["queries."+class+substrate] = p50[k]
		L["queries."+class+".alloc_mb"] = median(alloc)
		L["queries."+class+".comm_kb"] = median(comm)
	}
	busP50 := p50
	if w.mode == modeWire {
		L["transport.session_open_ms"] = perOpMS(total[spanSessionOpen])
		L["transport.wire_kb_per_op"] = ratio(float64(p.commBytes)/1e3, nops)
		if first {
			var err error
			if busP50, err = w.busTwin(ctx, env, p, p50); err != nil {
				return err
			}
		}
	}
	if first {
		seqMS, err := w.timeSeq()
		if err != nil {
			return err
		}
		for k, ms := range seqMS {
			L["queries."+classes[k]+".seq_ratio"] = ratio(ms, busP50[k])
		}
	}
	return nil
}

// busTwin runs the resident-wire script once more on the same layouts
// through resident bus runners, so the per-class difference between the two
// is the wire's own cost: it fills the bus-side and transport metrics of the
// wire pass p and returns the bus p50 per class. Every bus answer must
// digest equal to its wire twin's.
func (w *engineWorkload) busTwin(ctx context.Context, env *engineEnv, p *passResult, wireP50 map[int]float64) (map[int]float64, error) {
	bus := &engineWorkload{wname: w.wname + "/bus-twin", mode: modeBus, cases: w.cases, script: w.script}
	runners, err := bus.newRunners(env.layouts)
	if err != nil {
		return nil, err
	}
	benv := &engineEnv{layouts: env.layouts, runners: runners}
	if err := bus.warmUp(ctx, benv); err != nil {
		return nil, err
	}
	busMS := make(map[int][]float64)
	var busBytes int64
	for i, ci := range bus.script {
		c := bus.cases[ci]
		out := bus.execOp(ctx, c, benv, nil, i)
		if !out.right(c) {
			return nil, fmt.Errorf("%s: bus twin of op %d (%s) does not digest equal to its wire answer: err=%v", w.wname, i, classes[c.kind], out.err)
		}
		busMS[c.kind] = append(busMS[c.kind], out.ms)
		busBytes += out.st.Bytes
	}
	busP50 := make(map[int]float64)
	var tax float64
	for k, xs := range busMS {
		busP50[k] = percentile(xs, 0.5)
		p.layers["queries."+classes[k]+".bus_p50_ms"] = busP50[k]
		tax += wireP50[k] - busP50[k]
	}
	p.layers["transport.wire_tax_ms"] = tax
	p.layers["transport.wire_to_bus_bytes_ratio"] = ratio(float64(p.commBytes), float64(busBytes))
	return busP50, nil
}
