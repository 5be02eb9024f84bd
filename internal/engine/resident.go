package engine

import (
	"context"
	"fmt"
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
// Per-run scratch (the n worker contexts with their dense variable arrays,
// and the coordinator's fold state) is recycled through a sync.Pool: a query
// service answering many small queries would otherwise spend its time
// reallocating O(|V|) arrays per request.
//
// The layout may be a session's (SessionHandle.Layout), which the session
// splices between runs — never during one: the caller serializes its batches
// against its runs. The pooled scratch survives that: it is bound to the
// layout's *Fragment objects, whose graphs a splice swaps in place; each Run
// resets the contexts to the fragment's current size and border, the fold
// grows with the layout's slots, and border positions never move. A reseed
// builds a new layout, which needs a new Resident.
type Resident[Q, V, R any] struct {
	layout *partition.Layout
	prog   Program[Q, V, R]
	opts   Options
	pool   sync.Pool // *runScratch[V]
}

type runScratch[V any] struct {
	ctxs []*Context[V]
	fold *foldState[V]
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
	r := &Resident[Q, V, R]{layout: layout, prog: prog, opts: opts}
	spec := prog.Spec()
	r.pool.New = func() any {
		return &runScratch[V]{ctxs: freshContexts(layout, spec), fold: newFoldState(spec, layout)}
	}
	return r, nil
}

// Run executes one query over the resident layout. Safe for concurrent use.
// A cancelled ctx aborts the fixpoint at the next superstep barrier; the
// run's scratch still goes back to the pool — the bus substrate waits for
// every worker goroutine to exit before fixpoint returns, and scratch is
// reset on the next Get, so a cancelled run can never leak half-written
// state into a later one.
func (r *Resident[Q, V, R]) Run(ctx context.Context, q Q) (R, *metrics.Stats, error) {
	sc := r.pool.Get().(*runScratch[V])
	for _, c := range sc.ctxs {
		c.reset(c.Frag)
	}
	sc.fold.reset()
	res, stats, err := fixpoint(ctx, r.layout, r.prog, q, r.opts, newBusSubstrate(r.prog, q, r.opts, sc.ctxs), sc.fold, nil)
	r.pool.Put(sc)
	return res, stats, err
}
