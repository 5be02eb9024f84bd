package engine

import "time"

// execStep is the worker side of one superstep, the same on every
// substrate and in checkpoint replay: clear the keep-active flag, bring the
// context up to date with the command — PEval from scratch, the routed
// update batch, or a session's locally dirtied nodes — and run IncEval iff
// that changed something or the worker had asked to stay active. It returns
// the compute and apply wall times the reply carries to the flight recorder.
func execStep[Q, V, R any](prog Program[Q, V, R], q Q, ctx *Context[V], cmd workerCmd[V]) (computeNS, applyNS int64, err error) {
	wasActive := ctx.active
	ctx.active = false
	t0 := time.Now()
	switch cmd.kind {
	case cmdPEval:
		err = prog.PEval(q, ctx)
		return time.Since(t0).Nanoseconds(), 0, err
	case cmdLocalInc:
		ctx.setUpdated(cmd.dirty)
	default:
		ctx.apply(cmd.updates)
	}
	applyNS = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	if len(ctx.Updated()) > 0 || wasActive {
		err = prog.IncEval(q, ctx)
	}
	return time.Since(t1).Nanoseconds(), applyNS, err
}

// replayFragment is the worker half of fragment recovery (checkpoint.go has
// the coordinator half): it rebuilds the fresh ctx to the state the lost
// fragment held after the last logged superstep — PEval, then every logged
// update batch, each through execStep. Programs are deterministic functions
// of their command sequence, so the result is byte-identical to the lost
// context. Flushes and work counters of replayed supersteps are discarded —
// the coordinator already folded those replies — except at the owed
// superstep, whose flush the caller ships as the reply the barrier is still
// waiting for (replayFragment leaves it queued in ctx).
func replayFragment[Q, V, R any](prog Program[Q, V, R], q Q, ctx *Context[V], steps []replayStep[V], owe int) error {
	exec := func(step int, cmd workerCmd[V]) error {
		if _, _, err := execStep(prog, q, ctx, cmd); err != nil {
			return err
		}
		if step != owe {
			ctx.flush()
			ctx.takeWork()
		}
		return nil
	}
	if err := exec(1, workerCmd[V]{kind: cmdPEval}); err != nil {
		return err
	}
	for _, st := range steps {
		if err := exec(st.step, workerCmd[V]{kind: cmdIncEval, updates: st.updates}); err != nil {
			return err
		}
	}
	return nil
}
