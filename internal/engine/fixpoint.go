package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/trace"
)

// control commands sent from the coordinator to workers.
type cmdKind int

const (
	cmdPEval cmdKind = iota
	cmdIncEval
	cmdLocalInc // session resume: IncEval seeded with locally-dirtied nodes
	cmdStop
	cmdAssemble // wire transports only: ship the encoded partial answer
	cmdAbort    // wire transports only: run cancelled, discard and exit
	cmdAdopt    // recovery: adopt a dead worker's fragment, replay it from the checkpoint
)

type workerCmd[V any] struct {
	kind    cmdKind
	updates []update[V] // addressed by dense index in the receiver's graph
	dirty   []graph.ID
	adopt   *adoptCmd[V]
}

// adoptCmd carries a fragment revival: the checkpoint-derived command log to
// replay, and the superstep whose reply the barrier is still owed (0 = none).
type adoptCmd[V any] struct {
	ctx   *Context[V]         // bus: the fresh context the goroutine swaps in
	frag  *partition.Fragment // wire: the fragment the worker process rebuilt from the frame
	steps []replayStep[V]
	owe   int
}

type workerReply[V any] struct {
	changes   []update[V] // addressed by border position in the sender's fragment
	work      int64
	active    bool // worker wants another superstep regardless of messages
	err       error
	computeNS int64 // PEval/IncEval wall time, for the flight recorder
	applyNS   int64 // inbound-update apply wall time
}

// substrate is where a run's workers live, as the coordinator sees it: the
// schedule, fold, routing, checkpointing and cancellation rules of fixpoint
// are the same everywhere, and a substrate supplies only what differs between
// goroutines on the in-process bus (busSubstrate) and worker processes behind
// a socket transport (wireSubstrate).
type substrate[V any] interface {
	// link is the transport replies arrive on and traffic is metered by,
	// already wrapped by Options.Fault when that is set.
	link() mpi.Transport
	// open brings the workers up.
	open(ctx context.Context) error
	// command sends worker w its command for superstep step.
	command(w, step int, cmd workerCmd[V])
	// reply unpacks a worker's reply envelope.
	reply(env mpi.Envelope) (workerReply[V], error)
	// revive re-homes fragment frag after its worker died and has the adopter
	// rebuild it from log; owe is the superstep whose reply the barrier still
	// awaits (0 = none). It returns the adopting worker.
	revive(frag int, log []replayStep[V], owe int) (host int, err error)
	// release lets the workers go after a failed run; a cancelled one's
	// partial state they discard. inflight flags replies still on their way.
	release(cancelled bool, inflight []bool)
	// finish ends a run that reached its fixpoint at superstep step: it
	// hands over the per-fragment contexts Assemble reads and releases the
	// workers (also when it fails). lost, nil when recovery is off, revives
	// a fragment whose worker died before its partial answer arrived.
	finish(ctx context.Context, step int, lost func(frag int) error) ([]*Context[V], error)
}

// coordinator is one run's superstep state, read and updated by the barrier.
type coordinator[V any] struct {
	name string // the program's
	sub  substrate[V]
	tr   mpi.Transport
	fold *foldState[V]
	// ckpt, non-nil under Options.Recover, makes the barrier survive
	// worker-fatal envelopes.
	ckpt  *checkpoint[V]
	stats *metrics.Stats

	// pending flags the workers commanded this superstep whose frame has not
	// arrived: a dead one owes the barrier a reply, a cancelled wire run
	// drains exactly these.
	pending     []bool
	replies     []*workerReply[V]
	stillActive map[int]bool
}

// fixpoint is the engine's one superstep driver, behind Run, RunOnLayout
// and Session on either substrate: superstep 1, then IncEval
// on every fragment that received messages (or asked to stay active) until
// no update parameter changes anywhere and every worker is quiescent — the
// simultaneous fixpoint of Section 2.2 — then Assemble.
//
// Superstep 1 is PEval on all n workers when dirty is nil (a fresh run); a
// session resuming its retained contexts passes the per-worker dirty nodes
// instead, and exactly those workers run IncEval seeded with them
// (cmdLocalInc). fold is the caller's: pooled by RunOnLayout, retained by
// Session.
//
// Concurrent runs over one layout rely on a graph's reads being safe.
//
// ctx is checked at every barrier — while waiting for worker replies and
// before scheduling the next superstep. A cancelled run abandons the fold,
// releases the workers through the substrate (which returns only once no
// worker can still touch the caller's contexts) and returns an error that Is
// ctx's — also when a worker noticed the propagated deadline first and its
// error crossed the wire as a string.
func fixpoint[Q, V, R any](ctx context.Context, layout *partition.Layout, prog Program[Q, V, R], q Q, opts Options, sub substrate[V], fold *foldState[V], dirty map[int][]graph.ID) (R, *metrics.Stats, error) {
	var zero R
	n := len(layout.Fragments)
	var ckpt *checkpoint[V]
	if opts.Recover {
		ckpt = newCheckpoint(fold.spec, layout)
	}

	start := time.Now()
	tr := sub.link()
	stats := &metrics.Stats{Workers: n}
	where := "bus"
	if tr.Wire() {
		where, stats.Transport = "wire", "wire"
	}

	// Flight recorder + structured logging ride the context; both are nil
	// (and free) unless the caller attached them.
	rec := trace.FromContext(ctx)
	rec.BeginRun(prog.Name(), where, n)
	defer rec.EndRun()
	lg := trace.LoggerFrom(ctx)
	if lg != nil {
		lg = lg.With("run", rec.ID(), "class", prog.Name(), "substrate", where)
		lg.Debug("run started", "workers", n)
	}

	if err := sub.open(ctx); err != nil {
		return zero, stats, err
	}
	pending, stillActive := make([]bool, n), make(map[int]bool)
	c := &coordinator[V]{
		name: prog.Name(), sub: sub, tr: tr, fold: fold, ckpt: ckpt, stats: stats,
		pending: pending, replies: make([]*workerReply[V], n), stillActive: stillActive,
	}
	fail := func(err error) (R, *metrics.Stats, error) {
		cerr := ctxErr(ctx)
		sub.release(cerr != nil, pending)
		if cerr != nil && !errors.Is(err, cerr) {
			// both identities survive: a genuine worker error (e.g.
			// ErrNotMonotonic) racing the deadline stays errors.Is-able
			err = fmt.Errorf("%w: %w", err, cerr)
		}
		return zero, stats, err
	}

	// superstep dispatches cmds to the pending workers and runs the barrier,
	// leaving the next superstep's routing table in route.
	cmds := make([]workerCmd[V], n)
	var route [][]update[V]
	var scheduled int
	superstep := func() (err error) {
		active := 0
		for _, p := range pending {
			if p {
				active++
			}
		}
		rec.BeginStep(stats.Supersteps, active)
		for w, p := range pending {
			if p {
				sub.command(w, stats.Supersteps, cmds[w])
			}
		}
		route, scheduled, err = c.collectStep(ctx, rec, active, stats.Supersteps)
		return err
	}

	stats.Supersteps = 1
	for w := range cmds {
		if dirty == nil {
			cmds[w], pending[w] = workerCmd[V]{kind: cmdPEval}, true
		} else if ids, ok := dirty[w]; ok {
			slices.Sort(ids)
			cmds[w], pending[w] = workerCmd[V]{kind: cmdLocalInc, dirty: slices.Compact(ids)}, true
		}
	}
	// Fragment construction that replicated data (d-hop expansion) is
	// communication of a fresh run: charge it to superstep 1.
	replicated := layout.ReplicationBytes > 0 && dirty == nil
	if replicated {
		tr.AddTraffic(int64(n), layout.ReplicationBytes)
	}
	if err := superstep(); err != nil {
		return fail(err)
	}
	if replicated {
		stats.BytesPerStep[0] += layout.ReplicationBytes
	}

	for scheduled > 0 || len(stillActive) > 0 {
		if err := ctx.Err(); err != nil {
			return fail(cancelled(prog.Name(), stats.Supersteps, err))
		}
		if stats.Supersteps >= opts.MaxSupersteps {
			return fail(fmt.Errorf("engine: %s after %d supersteps: %w", prog.Name(), stats.Supersteps, ErrSuperstepLimit))
		}
		stats.Supersteps++
		for w := range cmds {
			cmds[w] = workerCmd[V]{kind: cmdIncEval, updates: route[w]}
			pending[w] = len(route[w]) > 0 || stillActive[w]
		}
		if err := superstep(); err != nil {
			return fail(err)
		}
	}

	var lost func(frag int) error
	if ckpt != nil {
		lost = func(frag int) error { return c.revive(rec, frag, stats.Supersteps, 0, "assemble") }
	}
	ctxs, err := sub.finish(ctx, stats.Supersteps, lost)
	if err != nil {
		return zero, stats, err
	}
	res, err := prog.Assemble(q, ctxs)
	stats.Messages = tr.Messages()
	stats.Bytes = tr.Bytes()
	stats.WallTime = time.Since(start)
	if lg != nil {
		lg.Info("run complete", "supersteps", stats.Supersteps, "wall_ms", stats.WallTime.Seconds()*1e3, "recoveries", len(stats.Recoveries))
	}
	if err != nil {
		return zero, stats, fmt.Errorf("engine: assemble: %w", err)
	}
	return res, stats, nil
}

// ctxErr is ctx.Err(), except that a deadline already reached counts as
// exceeded before the context's own timer has fired: a wire worker holds a
// copy of the deadline and may close its link a hair earlier than that timer
// runs, and the link failure the coordinator then sees is the deadline's
// doing, not a fault.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// cancelled wraps a context error with run provenance so callers can both
// errors.Is(err, context.Canceled/DeadlineExceeded) and see where the run
// stopped — the same message whether the cancellation landed at the barrier
// wait or at the pre-superstep check, on any substrate.
func cancelled(name string, step int, err error) error {
	return fmt.Errorf("engine: %s cancelled at superstep %d: %w", name, step, err)
}

// revive re-homes fragment w, whose worker died at superstep step, onto a
// survivor that replays it from the checkpoint, and records the recovery.
func (c *coordinator[V]) revive(rec *trace.Recorder, w, step, owe int, during string) error {
	host, err := c.sub.revive(w, c.ckpt.replayFor(w, step), owe)
	if err != nil {
		return err
	}
	c.stats.Recoveries = append(c.stats.Recoveries, metrics.Recovery{Superstep: step, Fragment: w, Host: host})
	if rec != nil {
		rec.Event("recovery", fmt.Sprintf("%s: fragment %d revived on worker %d", during, w, host))
	}
	return nil
}

// collectStep is the end-of-superstep barrier: drain the expect pending
// replies from the transport, update stillActive, fold the reports,
// checkpoint, append the superstep's work and byte rows to stats, and build
// the routing table. A cancelled ctx unblocks the wait mid-superstep.
//
// With recovery on, a worker-fatal envelope does not fail the barrier: the
// dead worker's fragment is revived on a survivor, and if it still owed this
// superstep a reply, the replayed fragment produces it — a fatal envelope
// never consumes a reply slot. With recovery off it fails the run with its
// classified error.
func (c *coordinator[V]) collectStep(ctx context.Context, rec *trace.Recorder, expect, step int) ([][]update[V], int, error) {
	n := len(c.pending)
	perWorker := make([]int64, n)
	var stepBytes int64
	// Drain all replies first, then fold them in worker order so that
	// aggregation is deterministic even for non-commutative aggregates
	// (e.g. CF's parameter averaging).
	clear(c.replies)
	for remaining := expect; remaining > 0; {
		env, err := c.tr.Recv(ctx, mpi.Coordinator)
		if err != nil {
			return nil, 0, cancelled(c.name, step, err)
		}
		from := env.From
		known := from >= 0 && from < n
		var rep workerReply[V]
		if perr, ok := env.Payload.(error); ok && env.Frame == nil {
			// A worker (or the link to it) died.
			if w, workerFatal := mpi.WorkerFatalOf(perr); workerFatal && c.ckpt != nil && w >= 0 && w < n {
				owe := 0
				if c.pending[w] {
					owe = step
				}
				if rerr := c.revive(rec, w, step, owe, fmt.Sprintf("superstep %d", step)); rerr != nil {
					return nil, 0, fmt.Errorf("worker %d superstep %d: recovering from %v: %w", w, step, perr, rerr)
				}
				// remaining is untouched: if a reply was owed, the revived
				// fragment ships it and the drain picks it up below.
				continue
			}
			err = perr
		} else if !known || !c.pending[from] {
			return nil, 0, fmt.Errorf("superstep %d: unexpected reply from worker %d", step, from)
		} else if rep, err = c.sub.reply(env); err == nil {
			err = rep.err
		}
		// Terminal or not, this was the worker's frame for the superstep: a
		// concurrent cancellation must not wait out the abort-drain timeout
		// on a frame that already arrived.
		if known {
			c.pending[from] = false
		}
		if err != nil {
			return nil, 0, fmt.Errorf("worker %d superstep %d: %w", from, step, err)
		}
		c.replies[from] = &rep
		if rep.active {
			c.stillActive[from] = true
		} else {
			delete(c.stillActive, from)
		}
		perWorker[from] = rep.work
		stepBytes += int64(env.Size)
		rec.WorkerTiming(step, from, rep.computeNS, rep.applyNS)
		remaining--
	}
	rec.BarrierDone(step)
	if err := c.fold.fold(c.replies); err != nil {
		return nil, 0, err
	}
	if c.ckpt != nil {
		if err := c.ckpt.append(step, c.fold, c.stillActive); err != nil {
			return nil, 0, err
		}
		if rec != nil {
			rec.Event("checkpoint", fmt.Sprintf("superstep %d", step))
		}
	}
	c.stats.WorkPerStep = append(c.stats.WorkPerStep, perWorker)
	c.stats.BytesPerStep = append(c.stats.BytesPerStep, stepBytes)
	route, scheduled := c.fold.buildRoute()
	rec.EndStep(step)
	return route, scheduled, nil
}
