package engine

import (
	"fmt"

	"grape/internal/partition"
)

// Superstep checkpoints. At every barrier the coordinator already holds
// exactly the state a failed fragment needs to be rebuilt: the folded
// update-parameter changes of each superstep (what buildRoute shipped) and
// each worker's keep-active flag. A checkpoint retains a copy of both per
// superstep ("epoch"), so when a worker dies the coordinator can derive, for
// any fragment, the precise command sequence the fragment saw — PEval, then
// per superstep the sorted update batch it was sent — and replay it on a
// fresh context hosted by a survivor. Programs are deterministic functions
// of that sequence, so the replayed context is byte-identical to the lost
// one and the resumed fixpoint converges to the failure-free answer.
//
// Checkpoints are coordinator-side and in-memory: they cost no extra
// communication (the records are copies of what the fold already computed)
// and die with the run.

// changeRec is one folded change of a superstep: the node's slot, its new
// global value, and the worker whose report set it.
type changeRec[V any] struct {
	slot   int32
	val    V
	winner int
}

// ckptEpoch is one superstep's snapshot: the folded changes (ascending by
// node ID, exactly as buildRoute walked them) and the post-superstep
// keep-active flag of every worker.
type ckptEpoch[V any] struct {
	recs   []changeRec[V]
	active []bool
}

// checkpoint accumulates epochs across a run's supersteps. epochs[k] is the
// snapshot taken at the barrier of superstep k+1 (supersteps start at 1).
type checkpoint[V any] struct {
	spec   vars[V]
	layout *partition.Layout
	epochs []ckptEpoch[V]
}

func newCheckpoint[V any](spec vars[V], layout *partition.Layout) *checkpoint[V] {
	return &checkpoint[V]{spec: spec, layout: layout}
}

// append snapshots superstep step from the just-completed fold. Steps are
// sequential from 1; the fold's changes are copied out of its arrays (the
// next superstep overwrites them), the stillActive set is flattened to a
// dense flag slice.
func (c *checkpoint[V]) append(step int, fold *foldState[V], stillActive map[int]bool) error {
	if step != len(c.epochs)+1 {
		return fmt.Errorf("engine: checkpoint epoch %d out of order (have %d)", step, len(c.epochs))
	}
	recs := make([]changeRec[V], len(fold.moved))
	for k, s := range fold.moved {
		recs[k] = changeRec[V]{slot: s, val: fold.val[s], winner: int(fold.winner[s])}
	}
	active := make([]bool, len(c.layout.Fragments))
	for w := range active {
		active[w] = stillActive[w]
	}
	c.epochs = append(c.epochs, ckptEpoch[V]{recs: recs, active: active})
	return nil
}

// replayStep is one superstep of a fragment's derived command log: the
// update batch the coordinator sent the fragment at that superstep.
type replayStep[V any] struct {
	step    int
	updates []update[V]
}

// replayFor derives fragment frag's command log for supersteps 2..through
// (superstep 1 is always PEval and needs no epoch). For each superstep it
// re-runs buildRoute's routing rule against the epoch's folded records, from
// the same host lists, and keeps the superstep iff the fragment was scheduled
// (non-empty batch, or it had asked to stay active). The result is exactly
// the frame sequence the lost worker consumed.
func (c *checkpoint[V]) replayFor(frag, through int) []replayStep[V] {
	var steps []replayStep[V]
	for s := 2; s <= through && s-2 < len(c.epochs); s++ {
		ep := c.epochs[s-2]
		var batch []update[V]
		for _, rec := range ep.recs {
			for _, h := range c.layout.SlotHosts(rec.slot) {
				if int(h.Frag) == frag && routed(c.spec.queue, c.layout, h, rec.winner) {
					batch = append(batch, update[V]{at: h.At, val: rec.val})
				}
			}
		}
		if len(batch) == 0 && !ep.active[frag] {
			continue
		}
		steps = append(steps, replayStep[V]{step: s, updates: batch})
	}
	return steps
}
