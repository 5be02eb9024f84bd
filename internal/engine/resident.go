package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"grape/internal/metrics"
	"grape/internal/partition"
)

// Resident executes one program over one prebuilt layout many times — the
// serving half of the paper's Fig. 2 system, where a graph is loaded and
// partitioned once and then answers a stream of user queries. The layout is
// never re-partitioned and no run writes its fragments: every Run gets
// its own Contexts, so concurrent Runs over the same Resident (or over
// distinct Residents sharing the layout) are safe — frozen graphs are
// race-tested for concurrent reads, and the fragments' dense caches are
// finalized at build time.
//
// Per-run scratch (runScratch: the n worker contexts with their dense
// variable arrays, and the coordinator's fold state) is recycled through a
// sync.Pool of the runner's own: a query service answering many small queries
// would otherwise spend its time reallocating O(|V|) arrays per request.
//
// The layout may be a session's (SessionHandle.Layout), which the session
// splices between runs — never during one: the caller serializes its batches
// against its runs. The pooled scratch survives that: it is bound to the
// layout's *Fragment objects, whose graphs a splice swaps in place; each Run
// resets the contexts to the fragment's current size and border and the fold
// to the layout's current slots, and border positions never move. A reseed
// builds a new layout, which needs a new Resident.
type Resident[Q, V, R any] struct {
	layout *partition.Layout
	prog   Program[Q, V, R]
	opts   Options
	pool   sync.Pool // *runScratch[V]
}

// runScratch is what one run allocates and the next run of the same program
// reuses: the n worker contexts — the bus's workers, and on the wire the
// contexts finish decodes the partial answers into — the coordinator's fold
// state, and on the wire the batch each worker's reply is decoded into.
type runScratch[V any] struct {
	ctxs    []*Context[V]
	fold    foldState[V]
	decoded [][]update[V]
}

// acquireScratch takes a run's scratch from pool — a new one when the pool is
// empty or holds a scratch of another value type, which a program sharing
// the name of the pool's (RunOnLayout pools by name) put there — and binds it
// to layout: every context reset to its fragment with the program's spec, the
// fold to the layout's slots, one empty reply batch per fragment.
func acquireScratch[V any](pool *sync.Pool, layout *partition.Layout, spec VarSpec[V]) *runScratch[V] {
	sc, ok := pool.Get().(*runScratch[V])
	if !ok {
		sc = new(runScratch[V])
	}
	n := len(layout.Fragments)
	// contexts past a smaller layout's fragments are kept for a larger one
	if n > cap(sc.ctxs) {
		sc.ctxs = slices.Grow(sc.ctxs[:cap(sc.ctxs)], n-cap(sc.ctxs))
	}
	sc.ctxs = sc.ctxs[:n]
	for i, c := range sc.ctxs {
		if c == nil {
			c = new(Context[V])
			sc.ctxs[i] = c
		}
		c.spec = spec
		c.reset(layout.Fragments[i])
	}
	sc.fold.reset(spec, layout)
	sc.decoded = slices.Grow(sc.decoded[:0], n)[:n]
	return sc
}

// releaseScratch puts sc back into pool once nothing of the run it served
// is reachable through it: no layout, fragment, program state or partial
// answer, and no folded or decoded value. A pooled scratch must not pin the
// layout of a one-shot run. Every context sized at the last acquire stays
// allocated, and its variables are cleared when it is next bound.
func releaseScratch[V any](pool *sync.Pool, sc *runScratch[V]) {
	for _, c := range sc.ctxs {
		c.Frag, c.State, c.Partial, c.vars = nil, nil, nil, nil
	}
	sc.fold.release()
	for i, batch := range sc.decoded {
		batch = batch[:cap(batch)]
		clear(batch)
		sc.decoded[i] = batch[:0]
	}
	pool.Put(sc)
}

// NewResident returns the reusable runner, refusing a wire transport —
// resident runs share in-process fragments. Options.Workers and
// Options.Layout are implied by the layout and ignored. Like every run, each
// Run refuses a layout whose fragments are not frozen.
func NewResident[Q, V, R any](layout *partition.Layout, prog Program[Q, V, R], opts Options) (*Resident[Q, V, R], error) {
	opts = opts.withDefaults()
	if opts.Transport != nil {
		return nil, fmt.Errorf("engine: resident runs use the in-process bus (wire workers cannot share a resident layout)")
	}
	return &Resident[Q, V, R]{layout: layout, prog: prog, opts: opts}, nil
}

// Run executes one query over the resident layout. Safe for concurrent use.
// A cancelled ctx aborts the fixpoint at the next superstep barrier; the
// run's scratch still goes back to the pool — the bus substrate waits for
// every worker goroutine to exit before fixpoint returns, and scratch is
// reset on the next Get, so a cancelled run can never leak half-written
// state into a later one.
func (r *Resident[Q, V, R]) Run(ctx context.Context, q Q) (R, *metrics.Stats, error) {
	sc := acquireScratch(&r.pool, r.layout, r.prog.Spec())
	res, stats, err := fixpoint(ctx, r.layout, r.prog, q, r.opts, newBusSubstrate(r.prog, q, r.opts, sc.ctxs), &sc.fold, nil)
	releaseScratch(&r.pool, sc)
	return res, stats, err
}
