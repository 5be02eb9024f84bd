package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"grape/internal/freelist"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// Options configures one engine run.
type Options struct {
	// Workers is the number of fragments/workers n. Zero means
	// runtime.GOMAXPROCS(0): one fragment per core that runs it.
	Workers int
	// Strategy picks the graph partitioner. Nil means partition.Default.
	Strategy partition.Strategy
	// Layout, if non-nil, bypasses partitioning and runs on a prebuilt
	// layout (used by benches that partition once and query many times).
	Layout *partition.Layout
	// ExpandHops > 0 builds d-hop expanded fragments (data-shipping; used by
	// locality-bounded queries such as subgraph isomorphism): each fragment
	// holds every vertex within d hops of its inner ones, and the edges a
	// match anchored at an inner vertex can read — at d = 1 those with an
	// inner end and those between two outer copies with an inner neighbor
	// in common (partition.BuildExpanded).
	ExpandHops int
	// MaxSupersteps caps the fixpoint; exceeding it is an error. Default
	// 100000 — effectively "trust the monotonicity argument".
	MaxSupersteps int
	// Transport, if non-nil, must be a wire transport (Transport.Wire() ==
	// true) and runs the fixpoint distributed: workers are separate
	// processes on the far side of the transport (see internal/transport),
	// the program must implement WireProgram, and byte metrics come from
	// actual encoded frame lengths. Nil selects the in-process bus, where
	// workers are goroutines and bytes are the value table's estimates; a
	// non-nil non-wire transport is rejected rather than silently ignored.
	Transport mpi.Transport
	// Recover enables superstep-checkpoint fault tolerance: the coordinator
	// snapshots each barrier's folded changes, classifies transport failures
	// (see internal/mpi), and on a worker-fatal error reassigns the dead
	// worker's fragments to survivors, replays them from the checkpoint, and
	// resumes the fixpoint — results stay byte-identical to a failure-free
	// run, and Stats.Recoveries records each revival. On a wire transport
	// the transport must implement mpi.Reassigner. Run-fatal errors (program
	// errors, cancellation, monotonicity violations) still fail the run.
	Recover bool
	// Fault, if non-nil, wraps the run's data transport — the seam fault
	// injection uses (mpi.NewFaultTransport) in tests and benches. Control
	// traffic that must not be lost (worker release on the in-process bus)
	// bypasses the wrapper.
	Fault func(mpi.Transport) mpi.Transport
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Strategy == nil {
		o.Strategy = partition.Default
	}
	if o.MaxSupersteps == 0 {
		o.MaxSupersteps = 100000
	}
	return o
}

// ErrNotMonotonic is returned (wrapped) when an aggregated update parameter
// moves against the program's declared partial order (VarSpec.Less).
var ErrNotMonotonic = errors.New("update parameter violated the declared partial order")

// ErrSuperstepLimit is returned (wrapped) when the fixpoint fails to
// stabilize within Options.MaxSupersteps.
var ErrSuperstepLimit = errors.New("superstep limit exceeded")

// Run executes prog on g with query q: it partitions g, spawns one goroutine
// per worker plus a coordinator loop on the calling goroutine, runs the
// PEval/IncEval fixpoint of Section 2.2, and returns Assemble's result along
// with the run's measurements.
//
// The context bounds the whole run: cancellation (or a deadline) is observed
// at every superstep barrier, the fold is abandoned, workers are released,
// and Run returns ctx's error — an abandoned query stops consuming worker
// CPU within one superstep instead of burning cores until its fixpoint
// converges. Pass context.Background() for an unbounded run.
func Run[Q, V, R any](ctx context.Context, g *graph.Graph, prog Program[Q, V, R], q Q, opts Options) (R, *metrics.Stats, error) {
	var zero R
	opts = opts.withDefaults()
	layout := opts.Layout
	if layout == nil {
		var err error
		layout, err = BuildLayout(g, opts)
		if err != nil {
			return zero, nil, err
		}
	}
	return RunOnLayout(ctx, layout, prog, q, opts)
}

// BuildLayout is the partition-once step of a resident service: it cuts g per
// opts (Workers, Strategy, ExpandHops for data-shipping expansion) and
// returns the frozen layout, which many subsequent runs — concurrent ones
// included, see RunOnLayout — can share.
func BuildLayout(g *graph.Graph, opts Options) (*partition.Layout, error) {
	opts = opts.withDefaults()
	asg, err := opts.Strategy.Partition(g, opts.Workers)
	if err != nil {
		return nil, err
	}
	if opts.ExpandHops > 0 {
		return partition.BuildExpanded(g, asg, opts.ExpandHops), nil
	}
	return partition.Build(g, asg), nil
}

// RunOnLayout is Run on a prebuilt layout. With a wire transport in
// Options.Transport the fixpoint drives remote worker processes (see
// wire.go); otherwise workers are goroutines on an in-process bus (bus.go).
// Either way the superstep loop is fixpoint. The context is honored as in
// Run. The layout is only read, so concurrent runs may share it.
//
// The run's contexts, fold state and reply batches come from a free list per
// program name and go back when it returns, cancelled or not: a service
// answering many small queries over resident layouts would otherwise
// reallocate O(|V|) arrays per request. The layout may be a session's
// (SessionHandle.Layout), which the session splices between runs — never
// during one: the caller serializes its batches against its runs. Each run
// rebinds the scratch to the fragments' current size and border and to the
// layout's current slots, and border positions never move.
func RunOnLayout[Q, V, R any](ctx context.Context, layout *partition.Layout, prog Program[Q, V, R], q Q, opts Options) (R, *metrics.Stats, error) {
	var zero R
	opts = opts.withDefaults()
	if opts.Transport != nil && !opts.Transport.Wire() {
		// Refuse rather than silently run on a hidden internal bus.
		return zero, nil, errors.New("engine: custom non-wire transports are not supported; leave Options.Transport nil for the in-process bus")
	}
	spec, err := declare(prog.Name(), prog.Spec())
	if err != nil {
		return zero, nil, err
	}
	pool := runPool[V](prog.Name())
	sc := acquireScratch(pool, layout, spec)
	defer releaseScratch(pool, sc)
	if opts.Transport == nil {
		return fixpoint(ctx, layout, prog, q, opts, newBusSubstrate(prog, q, spec, opts, sc.ctxs), &sc.fold, nil)
	}
	sub, err := newWireSubstrate(layout, prog, q, spec, opts, sc)
	if err != nil {
		return zero, nil, err
	}
	return fixpoint(ctx, layout, prog, q, opts, sub, &sc.fold, nil)
}

// runPools holds RunOnLayout's scratch, one free list per program name and
// value type. A run's scratch goes back when one query ends and is taken when
// the next starts, often on another P, so it lives on a freelist.List, which
// any P takes from, rather than in a sync.Pool, where a Get on one P misses
// what another P put back. Like a sync.Pool, a List frees what sits idle
// through two collections: between queries a one-shot caller holds no run
// memory.
var runPools sync.Map // runKey -> *freelist.List[runScratch[V]]

// runKey names a program's free list. The value type is part of it: two
// programs that share a name but not V cannot hand each other their scratch.
type runKey struct {
	name string
	v    reflect.Type
}

func runPool[V any](name string) *freelist.List[runScratch[V]] {
	key := runKey{name, reflect.TypeFor[V]()}
	if p, ok := runPools.Load(key); ok {
		return p.(*freelist.List[runScratch[V]])
	}
	p, _ := runPools.LoadOrStore(key, new(freelist.List[runScratch[V]]))
	return p.(*freelist.List[runScratch[V]])
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

// acquireScratch takes a run's scratch from pool — a new one when none is
// idle — and binds it to layout: every context reset to its fragment with
// the program's spec, the fold to the layout's slots, one empty reply batch
// per fragment.
func acquireScratch[V any](pool *freelist.List[runScratch[V]], layout *partition.Layout, spec vars[V]) *runScratch[V] {
	sc := pool.Get()
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
// allocated, and its variables are cleared when it is next bound. A
// cancelled run's scratch is released too: the bus waits for every worker
// goroutine to exit before fixpoint returns, so nothing writes it after.
func releaseScratch[V any](pool *freelist.List[runScratch[V]], sc *runScratch[V]) {
	for _, c := range sc.ctxs {
		c.Frag, c.State, c.Partial = nil, nil, nil
	}
	sc.fold.release()
	for i, batch := range sc.decoded {
		batch = batch[:cap(batch)]
		clear(batch)
		sc.decoded[i] = batch[:0]
	}
	pool.Put(sc)
}
