package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// RunAsync executes a PIE program without BSP barriers: workers exchange
// changed update parameters peer-to-peer and re-run IncEval the moment a
// batch arrives, instead of waiting for a global superstep. This is the
// direction GRAPE's follow-up work (adaptive asynchronous parallelization)
// took; for programs with a monotonic update-parameter order the fixpoint
// is unique, so the asynchronous schedule reaches exactly the same answer —
// property tests assert RunAsync ≡ Run.
//
// Asynchrony changes the cost profile, not the answer: there are no
// straggler barriers (the simulated time of an async run is the busiest
// worker's total work plus traffic, with a single startup latency), at the
// price of potentially more re-computation and traffic because workers act
// on stale values. Programs relying on coordinated rounds (CF's epoch
// lockstep, the Simulation Theorem adapter) need the synchronous engine;
// RunAsync rejects Consume-typed programs.
//
// Termination uses Dijkstra–Scholten-style credit counting: a shared
// counter tracks unprocessed tasks (the initial PEval tasks plus every
// routed batch); a worker decrements only after it has finished processing
// a task and enqueued all resulting batches, so the counter cannot reach
// zero while work is still in flight.
//
// Cancellation: ctx is observed at every delivery round — a cancelled
// context closes the shutdown channel, every mailbox wakes, and workers
// exit before processing another batch (a worker mid-IncEval finishes that
// one activation first). RunAsync then returns ctx's error.
func RunAsync[Q, V, R any](ctx context.Context, g *graph.Graph, prog Program[Q, V, R], q Q, opts Options) (R, *metrics.Stats, error) {
	var zero R
	opts = opts.withDefaults()
	spec := prog.Spec()
	if spec.Consume {
		return zero, nil, fmt.Errorf("engine: %s uses consumable message queues; async mode requires convergent state", prog.Name())
	}
	if opts.Transport != nil {
		return zero, nil, fmt.Errorf("engine: async mode runs on the in-process bus only (peer-to-peer mailboxes have no wire framing)")
	}
	layout := opts.Layout
	if layout == nil {
		asg, err := opts.Strategy.Partition(g, opts.Workers)
		if err != nil {
			return zero, nil, err
		}
		if opts.ExpandHops > 0 {
			layout = partition.BuildExpanded(g, asg, opts.ExpandHops)
		} else {
			layout = partition.Build(g, asg)
		}
	}
	n := len(layout.Fragments)
	start := time.Now()
	stats := &metrics.Stats{Engine: "grape-async/" + prog.Name(), Workers: n}

	ctxs := make([]*Context[V], n)
	boxes := make([]*mailbox[V], n)
	for i, f := range layout.Fragments {
		ctxs[i] = newContext(f, spec)
		boxes[i] = newMailbox[V]()
	}

	var (
		pending     atomic.Int64 // unprocessed tasks (credits)
		msgs, bytes atomic.Int64
		workTotal   = make([]int64, n)
		firstErr    atomic.Value
		doneOnce    sync.Once
		done        = make(chan struct{})
	)
	finish := func() { doneOnce.Do(func() { close(done) }) }
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, error(err))
		finish()
	}

	// route fans a worker's flushed changes out to the hosting fragments,
	// through the layout's border index like the coordinator's buildRoute:
	// the sender's border position names a slot, the slot its hosts and where
	// each keeps the vertex. Batches are gathered in a dense per-host table
	// (host order is naturally ascending) — batch slices themselves are fresh
	// per call because mailboxes retain them until the receiver drains.
	route := func(w int, changes []update[V]) {
		if len(changes) == 0 {
			return
		}
		slots := layout.Fragments[w].Slots()
		byHost := make([][]update[V], n)
		for _, u := range changes {
			for _, h := range layout.SlotHosts(slots[u.at]) {
				if int(h.Frag) != w {
					byHost[h.Frag] = append(byHost[h.Frag], update[V]{at: h.At, val: u.val})
				}
			}
		}
		for h, batch := range byHost {
			if len(batch) == 0 {
				continue
			}
			msgs.Add(1)
			bytes.Add(int64(shipSize(spec, batch)))
			pending.Add(1)
			boxes[h].push(batch)
		}
	}

	// Cancellation watcher: a cancelled run context fails the run, which
	// closes done and wakes every mailbox below.
	go func() {
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-done:
		}
	}()

	// Shutdown broadcaster: sync.Cond cannot select on a channel, so wake
	// every mailbox under its lock once done closes (the lock serializes
	// against the check-then-Wait in pop, preventing missed wakeups).
	go func() {
		<-done
		for _, b := range boxes {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}()

	pending.Add(int64(n)) // one PEval task per worker
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(w int) {
			defer wg.Done()
			ctx := ctxs[w]
			// PEval task
			if err := prog.PEval(q, ctx); err != nil {
				fail(fmt.Errorf("worker %d peval: %w", w, err))
				return
			}
			workTotal[w] += ctx.takeWork()
			route(w, ctx.flush())
			if pending.Add(-1) == 0 {
				finish()
			}
			for {
				// Drain the whole inbox per activation: reacting to one
				// batch at a time multiplies stale recomputation, so real
				// asynchronous engines coalesce pending updates.
				batches, ok := boxes[w].popAll(done)
				if !ok {
					return
				}
				merged := batches[0]
				for _, b := range batches[1:] {
					merged = append(merged, b...)
				}
				ctx.apply(merged)
				if len(ctx.Updated()) > 0 {
					if err := prog.IncEval(q, ctx); err != nil {
						fail(fmt.Errorf("worker %d inceval: %w", w, err))
						return
					}
				}
				workTotal[w] += ctx.takeWork()
				route(w, ctx.flush())
				if pending.Add(int64(-len(batches))) == 0 {
					finish()
				}
			}
		}(i)
	}
	<-done
	wg.Wait()

	if err, _ := firstErr.Load().(error); err != nil {
		// wrap only genuine cancellations: a worker error that races with a
		// ctx that happens to be done must keep its own identity
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("engine: async %s cancelled: %w", prog.Name(), err)
		}
		return zero, stats, err
	}
	// One "superstep" row per worker: async has no barriers, so the cost
	// model charges max total work + one latency + total bytes — the
	// barrier-free profile that is the point of asynchronous execution.
	stats.Supersteps = 1
	stats.WorkPerStep = [][]int64{workTotal}
	stats.BytesPerStep = []int64{bytes.Load()}
	stats.Messages = msgs.Load()
	stats.Bytes = bytes.Load()
	res, err := prog.Assemble(q, ctxs)
	stats.WallTime = time.Since(start)
	if err != nil {
		return zero, stats, fmt.Errorf("engine: assemble: %w", err)
	}
	return res, stats, nil
}

// mailbox is an unbounded MPSC queue with blocking pop; unboundedness is
// what makes the peer-to-peer routing deadlock-free.
type mailbox[V any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    [][]update[V]
}

func newMailbox[V any]() *mailbox[V] {
	m := &mailbox[V]{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox[V]) push(batch []update[V]) {
	m.mu.Lock()
	m.q = append(m.q, batch)
	m.mu.Unlock()
	m.cond.Signal()
}

// popAll blocks until at least one batch is queued (or done closes, second
// return false) and drains the entire queue.
func (m *mailbox[V]) popAll(done <-chan struct{}) ([][]update[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.q) == 0 {
		select {
		case <-done:
			return nil, false
		default:
		}
		// The shutdown broadcaster wakes every mailbox when done closes;
		// Cond cannot select on channels directly.
		m.cond.Wait()
	}
	batches := m.q
	m.q = nil
	return batches, true
}
