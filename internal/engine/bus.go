package engine

import (
	"context"
	"sync"

	"grape/internal/mpi"
	"grape/internal/partition"
)

// busSubstrate keeps a run's workers in this process: one goroutine per
// fragment on an mpi.Bus, commands and replies passed by reference and
// metered by the value table's size estimate. The contexts are the caller's —
// pooled (RunOnLayout) or retained (Session).
type busSubstrate[Q, V, R any] struct {
	prog Program[Q, V, R]
	q    Q
	spec vars[V]
	ctxs []*Context[V]
	// The data path runs through tr, the optionally fault-wrapped bus; worker
	// goroutines, revival and release stay on the raw bus, so an unconsumed
	// planned fault can never swallow a stop command and hang the teardown.
	bus *mpi.Bus
	tr  mpi.Transport
	wg  sync.WaitGroup
}

func newBusSubstrate[Q, V, R any](prog Program[Q, V, R], q Q, spec vars[V], opts Options, ctxs []*Context[V]) *busSubstrate[Q, V, R] {
	n := len(ctxs)
	bus := mpi.NewBus(n, 4*n+16)
	b := &busSubstrate[Q, V, R]{prog: prog, q: q, spec: spec, ctxs: ctxs, bus: bus, tr: bus}
	if opts.Fault != nil {
		b.tr = opts.Fault(bus)
	}
	return b
}

// freshContexts builds one just-constructed context per fragment.
func freshContexts[V any](layout *partition.Layout, spec vars[V]) []*Context[V] {
	ctxs := make([]*Context[V], len(layout.Fragments))
	for i, f := range layout.Fragments {
		ctxs[i] = newContext(f, spec)
	}
	return ctxs
}

func (b *busSubstrate[Q, V, R]) link() mpi.Transport { return b.tr }

func (b *busSubstrate[Q, V, R]) open(ctx context.Context) error {
	b.wg.Add(len(b.ctxs))
	for w, c := range b.ctxs {
		go func() {
			defer b.wg.Done()
			workerLoop(ctx, b.bus, w, b.prog, b.q, c, b.spec)
		}()
	}
	return nil
}

func (b *busSubstrate[Q, V, R]) command(w, step int, cmd workerCmd[V]) {
	b.tr.Send(mpi.Envelope{From: mpi.Coordinator, To: w, Step: step, Payload: cmd, Size: b.spec.shipSize(cmd.updates)})
}

func (b *busSubstrate[Q, V, R]) reply(env mpi.Envelope) (workerReply[V], error) {
	return env.Payload.(workerReply[V]), nil
}

// revive on the bus is revive-in-place: the dead worker's goroutine is not
// actually gone — only the coordinator's view of it faulted — and it is
// provably idle (its command was dropped, or its reply already left), so the
// *same* goroutine is handed a fresh context plus the replay log. Channel
// delivery orders the context handoff, and the ctxs[frag] write is safe
// because the goroutine only ever touches the context it was handed.
func (b *busSubstrate[Q, V, R]) revive(frag int, log []replayStep[V], owe int) (int, error) {
	if r, ok := b.tr.(mpi.Reassigner); ok {
		if err := r.Reassign(frag, frag); err != nil {
			return 0, err
		}
	}
	nc := newContext(b.ctxs[frag].Frag, b.spec)
	b.ctxs[frag] = nc
	b.bus.Send(mpi.Envelope{From: mpi.Coordinator, To: frag, Payload: workerCmd[V]{kind: cmdAdopt, adopt: &adoptCmd[V]{ctx: nc, steps: log, owe: owe}}})
	return frag, nil
}

// release stops every worker goroutine and waits for it to exit, cancelled
// or not: contexts handed back to RunOnLayout's pool or retained by a Session
// are never still being written by a straggler.
func (b *busSubstrate[Q, V, R]) release(bool, []bool) {
	for w := range b.ctxs {
		b.bus.Send(mpi.Envelope{From: mpi.Coordinator, To: w, Payload: workerCmd[V]{kind: cmdStop}})
	}
	b.wg.Wait()
}

func (b *busSubstrate[Q, V, R]) finish(context.Context, int, func(int) error) ([]*Context[V], error) {
	b.release(false, nil)
	return b.ctxs, nil
}

// workerLoop is one bus worker: it serves its fragment until stopped, or until
// the run's context ends while it idles at the barrier (the coordinator stops
// waiting on it through the same context).
func workerLoop[Q, V, R any](runCtx context.Context, bus *mpi.Bus, w int, prog Program[Q, V, R], q Q, ctx *Context[V], spec vars[V]) {
	for {
		env, err := bus.Recv(runCtx, w)
		if err != nil {
			return
		}
		cmd := env.Payload.(workerCmd[V])
		step := env.Step
		var computeNS, applyNS int64
		switch cmd.kind {
		case cmdStop:
			return
		case cmdAdopt:
			// Revival after an injected fault: swap the poisoned context for
			// the fresh one and replay it. Only the owed superstep's reply (or
			// a replay error) goes back — earlier ones were already folded.
			ctx, step = cmd.adopt.ctx, cmd.adopt.owe
			if err = replayFragment(prog, q, ctx, cmd.adopt.steps, step); err == nil && step == 0 {
				continue
			}
		default:
			computeNS, applyNS, err = execStep(prog, q, ctx, cmd)
		}
		changes := ctx.flush()
		bus.Send(mpi.Envelope{From: w, To: mpi.Coordinator, Step: step, Payload: workerReply[V]{changes: changes, work: ctx.takeWork(), active: ctx.active, err: err, computeNS: computeNS, applyNS: applyNS}, Size: spec.shipSize(changes)})
	}
}
