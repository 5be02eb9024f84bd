package engine

import (
	"context"
	"errors"
	"sync"

	"grape/internal/balance"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// Options configures one engine run.
type Options struct {
	// Workers is the number of fragments/workers n. Default 4.
	Workers int
	// Strategy picks the graph partitioner. Default partition.Hash.
	Strategy partition.Strategy
	// Layout, if non-nil, bypasses partitioning and runs on a prebuilt
	// layout (used by benches that partition once and query many times).
	Layout *partition.Layout
	// ExpandHops > 0 builds d-hop expanded fragments (data-shipping; used by
	// locality-bounded queries such as subgraph isomorphism).
	ExpandHops int
	// MaxSupersteps caps the fixpoint; exceeding it is an error. Default
	// 100000 — effectively "trust the monotonicity argument".
	MaxSupersteps int
	// CheckMonotonic makes the coordinator verify that every aggregated
	// update-parameter change descends along the program's declared partial
	// order, surfacing Assurance Theorem violations as errors.
	CheckMonotonic bool
	// Fragments, when larger than Workers, over-partitions the graph into
	// this many fragments and lets the Load Balancer pack them onto the
	// Workers with the LPT heuristic (workload estimated from vertex, edge
	// and border counts). Over-partitioning evens skewed graphs out — one
	// of the graph-level optimizations of Fig. 2's balancer tier.
	Fragments int
	// Transport, if non-nil, must be a wire transport (Transport.Wire() ==
	// true) and runs the fixpoint distributed: workers are separate
	// processes on the far side of the transport (see internal/transport),
	// the program must implement WireProgram, and byte metrics come from
	// actual encoded frame lengths. Nil selects the in-process bus, where
	// workers are goroutines and bytes are VarSpec.Size estimates; a
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
		o.Workers = 4
	}
	if o.Strategy == nil {
		o.Strategy = partition.Hash{}
	}
	if o.MaxSupersteps == 0 {
		o.MaxSupersteps = 100000
	}
	return o
}

// ErrNotMonotonic is returned (wrapped) when CheckMonotonic detects an
// update parameter moving against the program's declared partial order.
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
// opts (Workers, Strategy, Fragments for over-partitioning, ExpandHops for
// data-shipping expansion) and returns the frozen layout, which many
// subsequent runs — concurrent ones included, see Resident — can share.
func BuildLayout(g *graph.Graph, opts Options) (*partition.Layout, error) {
	opts = opts.withDefaults()
	asg, err := partitionFor(g, opts)
	if err != nil {
		return nil, err
	}
	if opts.ExpandHops > 0 {
		return partition.BuildExpanded(g, asg, opts.ExpandHops), nil
	}
	return partition.Build(g, asg), nil
}

// partitionFor computes the worker-level assignment, optionally via the
// Load Balancer: over-partition into Options.Fragments and LPT-pack onto
// Options.Workers.
func partitionFor(g *graph.Graph, opts Options) (*partition.Assignment, error) {
	if opts.Fragments <= opts.Workers {
		return opts.Strategy.Partition(g, opts.Workers)
	}
	fine, err := opts.Strategy.Partition(g, opts.Fragments)
	if err != nil {
		return nil, err
	}
	coarse, _, err := balance.Rebalance(partition.Build(g, fine), opts.Workers, balance.DefaultWeights())
	return coarse, err
}

// RunOnLayout is Run on a prebuilt layout. With a wire transport in
// Options.Transport the fixpoint drives remote worker processes (see
// wire.go); otherwise workers are goroutines on an in-process bus (bus.go).
// Either way the superstep loop is fixpoint. The context is honored as in
// Run. The run's contexts, fold state and reply batches come from a pool
// per program name and go back when it returns, as a Resident's do.
func RunOnLayout[Q, V, R any](ctx context.Context, layout *partition.Layout, prog Program[Q, V, R], q Q, opts Options) (R, *metrics.Stats, error) {
	var zero R
	opts = opts.withDefaults()
	if opts.Transport != nil && !opts.Transport.Wire() {
		// Refuse rather than silently run on a hidden internal bus.
		return zero, nil, errors.New("engine: custom non-wire transports are not supported; leave Options.Transport nil for the in-process bus")
	}
	pool := runPool(prog.Name())
	sc := acquireScratch(pool, layout, prog.Spec())
	defer releaseScratch(pool, sc)
	if opts.Transport == nil {
		return fixpoint(ctx, layout, prog, q, opts, newBusSubstrate(prog, q, opts, sc.ctxs), &sc.fold, nil)
	}
	sub, err := newWireSubstrate(layout, prog, q, opts, sc)
	if err != nil {
		return zero, nil, err
	}
	return fixpoint(ctx, layout, prog, q, opts, sub, &sc.fold, nil)
}

// runPools holds RunOnLayout's scratch pools, one *sync.Pool per program
// name. They are sync.Pools so that a collection empties them: between
// queries a one-shot caller holds no run memory.
var runPools sync.Map

func runPool(name string) *sync.Pool {
	if p, ok := runPools.Load(name); ok {
		return p.(*sync.Pool)
	}
	p, _ := runPools.LoadOrStore(name, new(sync.Pool))
	return p.(*sync.Pool)
}
