package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"grape/internal/graph"
	"grape/internal/partition"
)

// The coordinator's per-superstep work — folding every worker's reported
// update-parameter changes and routing the survivors — would cap worker
// parallelism if it were one serial loop, so foldState shards it: changed IDs
// hash into one shard per worker, each folded by its own goroutine. Within a
// shard the fold walks replies in worker order, so aggregation stays
// deterministic even for non-commutative aggregates (e.g. CF's parameter
// averaging) — shards partition the ID space, so per-ID fold order is exactly
// that of a serial loop.

// changeRec is one folded change of a superstep: the node, its new global
// value, and the worker whose report set the final value (routing skips that
// worker — it already holds the value).
type changeRec[V any] struct {
	id     graph.ID
	val    V
	winner int
}

// foldState carries the coordinator's aggregation machinery across
// supersteps: the sharded global border state, per-shard change lists, and
// per-worker routing buffers, all reused between supersteps so the hot path
// stops reallocating.
type foldState[V any] struct {
	spec   VarSpec[V] //grapevet:keep construction-time identity: fixed per Resident, like Context.spec
	n      int        //grapevet:keep construction-time shape: worker count is a property of the layout the scratch was built for
	shards int        //grapevet:keep construction-time shape: derived from n at construction

	global  []map[graph.ID]V // best-known border values, by shard
	changed [][]changeRec[V] // this superstep's folded changes, by shard
	merged  []changeRec[V]   // the same across all shards, ascending by ID
	errs    []error          // per-shard fold errors (parallel path)
	buckets [][]VarUpdate[V] // n*shards scratch for the parallel fold
	route   [][]VarUpdate[V] // per-worker routing buffers
}

func newFoldState[V any](spec VarSpec[V], n int) *foldState[V] {
	s := n
	if s < 1 {
		s = 1
	}
	fs := &foldState[V]{
		spec:    spec,
		n:       n,
		shards:  s,
		global:  make([]map[graph.ID]V, s),
		changed: make([][]changeRec[V], s),
		errs:    make([]error, s),
		buckets: make([][]VarUpdate[V], n*s),
		route:   make([][]VarUpdate[V], n),
	}
	for i := 0; i < s; i++ {
		fs.global[i] = make(map[graph.ID]V)
	}
	return fs
}

func (f *foldState[V]) shardOf(id graph.ID) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15) % uint64(f.shards))
}

// lookup returns the folded global value of id, if any. The session layer
// uses it to bring new outer copies up to date.
func (f *foldState[V]) lookup(id graph.ID) (V, bool) {
	v, ok := f.global[f.shardOf(id)][id]
	return v, ok
}

// forget drops the coordinator's folded value of id. Delete repair uses it
// when a node's value is invalidated: the retained baseline would otherwise
// suppress (via Eq) or reject (via the monotonicity check) the re-derived
// value of the node.
func (f *foldState[V]) forget(id graph.ID) {
	delete(f.global[f.shardOf(id)], id)
}

// force overwrites the coordinator's folded value of id, bypassing Agg and
// the monotonicity check. Delete repair uses it to re-align the baseline
// with a repaired value that may sit above the old one in the order (e.g. a
// CC label after a component split).
func (f *foldState[V]) force(id graph.ID, v V) {
	f.global[f.shardOf(id)][id] = v
}

// parallelFoldThreshold is the changed-value count below which sharded
// goroutines cost more than they save and the fold runs serially (over the
// same shard structures, in the same order).
const parallelFoldThreshold = 256

// fold aggregates one superstep's reports. replies is indexed by worker;
// nil entries are workers that were not scheduled. checkMono enables the
// Assurance Theorem verification of Options.CheckMonotonic.
func (f *foldState[V]) fold(replies []*workerReply[V], checkMono bool) error {
	total := 0
	for _, rep := range replies {
		if rep != nil {
			total += len(rep.changes)
		}
	}
	for s := 0; s < f.shards; s++ {
		f.changed[s] = f.changed[s][:0]
		f.errs[s] = nil
	}
	if f.shards == 1 || total < parallelFoldThreshold {
		for w := 0; w < f.n; w++ {
			if replies[w] == nil {
				continue
			}
			for _, u := range replies[w].changes {
				if err := f.foldOne(f.shardOf(u.ID), w, u, checkMono); err != nil {
					return err
				}
			}
		}
		for s := range f.changed {
			f.settle(s)
		}
		f.merge()
		return nil
	}
	// Bucket phase: split each worker's (ID-sorted) report by shard, workers
	// in parallel, preserving per-worker order within every bucket.
	var wg sync.WaitGroup
	for w := 0; w < f.n; w++ {
		base := w * f.shards
		for s := 0; s < f.shards; s++ {
			f.buckets[base+s] = f.buckets[base+s][:0]
		}
		if replies[w] == nil || len(replies[w].changes) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * f.shards
			for _, u := range replies[w].changes {
				s := f.shardOf(u.ID)
				f.buckets[base+s] = append(f.buckets[base+s], u)
			}
		}(w)
	}
	wg.Wait()
	// Fold phase: one goroutine per shard, walking buckets in worker order —
	// the same deterministic order as the serial path.
	for s := 0; s < f.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for w := 0; w < f.n; w++ {
				for _, u := range f.buckets[w*f.shards+s] {
					if err := f.foldOne(s, w, u, checkMono); err != nil {
						f.errs[s] = err
						return
					}
				}
			}
			f.settle(s)
		}(s)
	}
	wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	f.merge()
	return nil
}

// settle leaves shard s with one record per changed node, ordered by node ID.
// foldOne appends a record per report that moved a value; sorted by node and,
// within a node, by reporting worker — the fold order — the last record of a
// node carries its final value and winner (a queue variable instead folds its
// reports, in that order, and goes to the owner whoever reported first).
func (f *foldState[V]) settle(s int) {
	recs := f.changed[s]
	slices.SortFunc(recs, func(a, b changeRec[V]) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.winner, b.winner)
	})
	out := recs[:0]
	for _, r := range recs {
		n := len(out)
		again := n > 0 && out[n-1].id == r.id
		switch {
		case again && f.spec.Consume:
			out[n-1].val = f.spec.Agg(out[n-1].val, r.val)
		case again:
			out[n-1] = r
		case f.spec.Consume:
			r.val = f.spec.Agg(f.spec.Default, r.val)
			fallthrough
		default:
			out = append(out, r)
		}
	}
	f.changed[s] = out
}

// merge interleaves the shards' change lists, each sorted by its shard's
// goroutine, into one list ordered by node ID. Ordering the changes here,
// once, is what orders every batch buildRoute deals out of them (and every
// batch a checkpoint replays): a change fans out to each host of its node, so
// sorting per destination would sort it that often, on the coordinator, while
// every worker waits.
func (f *foldState[V]) merge() {
	f.merged = f.merged[:0]
	heads := make([]int, len(f.changed)) // read position per shard
	for {
		best := -1
		for s, recs := range f.changed {
			if h := heads[s]; h < len(recs) && (best < 0 || recs[h].id < f.changed[best][heads[best]].id) {
				best = s
			}
		}
		if best < 0 {
			return
		}
		f.merged = append(f.merged, f.changed[best][heads[best]])
		heads[best]++
	}
}

// foldOne merges one reported value into shard s's state and, when the
// global value moves, appends the change and the worker that caused it.
func (f *foldState[V]) foldOne(s, w int, u VarUpdate[V], checkMono bool) error {
	if f.spec.Consume {
		// queue semantics: this superstep's reports alone are folded (by
		// settle) and delivered to the owner; nothing persists here
		f.changed[s] = append(f.changed[s], changeRec[V]{id: u.ID, val: u.Val, winner: w})
		return nil
	}
	old, has := f.global[s][u.ID]
	if !has {
		old = f.spec.Default
	}
	merged := f.spec.Agg(old, u.Val)
	if f.spec.Eq(old, merged) {
		return nil
	}
	if checkMono && f.spec.Less != nil && has && !f.spec.Less(merged, old) {
		return fmt.Errorf("engine: node %d: %v -> %v: %w", u.ID, old, merged, ErrNotMonotonic)
	}
	f.global[s][u.ID] = merged
	f.changed[s] = append(f.changed[s], changeRec[V]{id: u.ID, val: merged, winner: w})
	return nil
}

// buildRoute turns the folded changes into per-worker update batches: each
// changed value goes to every fragment hosting the node except the winner
// (queue variables go to the owner only: they are messages, not state).
// Batches come out ordered by node ID because the changes are. Buffers are
// reused across supersteps — workers are done with the previous batch before
// their replies reach the coordinator, so nothing aliases.
// Returns the routing table (indexed by worker; empty slices mean "not
// scheduled") and the number of workers with pending updates. A change to a
// vertex the graph does not have — a corrupt or hostile reply: no program
// sets a variable outside its fragment — fails the run, naming the worker.
func (f *foldState[V]) buildRoute(layout *partition.Layout) ([][]VarUpdate[V], int, error) {
	for w := 0; w < f.n; w++ {
		f.route[w] = f.route[w][:0]
	}
	for _, rec := range f.merged {
		hosts := layout.Hosts(rec.id)
		if len(hosts) == 0 {
			return nil, 0, fmt.Errorf("engine: worker %d reported a value for vertex %d, which the graph does not have", rec.winner, rec.id)
		}
		if f.spec.Consume {
			o := layout.Asg.Owner(rec.id)
			f.route[o] = append(f.route[o], VarUpdate[V]{ID: rec.id, Val: rec.val})
			continue
		}
		for _, h := range hosts {
			if h == rec.winner {
				continue
			}
			f.route[h] = append(f.route[h], VarUpdate[V]{ID: rec.id, Val: rec.val})
		}
	}
	scheduled := 0
	for w := 0; w < f.n; w++ {
		if len(f.route[w]) > 0 {
			scheduled++
		}
	}
	return f.route, scheduled, nil
}
