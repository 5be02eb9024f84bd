package engine

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"grape/internal/graph"
)

// refFold is the fold as one serial loop over one map, with the position
// index the sharded fold used to keep: the reference for what a superstep's
// merged change list must hold. It returns the changes ascending by ID.
func refFold[V any](spec VarSpec[V], global map[graph.ID]V, replies []*workerReply[V]) []changeRec[V] {
	var changed []changeRec[V]
	pos := make(map[graph.ID]int)
	for w, rep := range replies {
		if rep == nil {
			continue
		}
		for _, u := range rep.changes {
			p, seen := pos[u.ID]
			if spec.Consume {
				if seen {
					changed[p].val = spec.Agg(changed[p].val, u.Val)
					continue
				}
				pos[u.ID] = len(changed)
				changed = append(changed, changeRec[V]{id: u.ID, val: spec.Agg(spec.Default, u.Val), winner: w})
				continue
			}
			old, has := global[u.ID]
			if !has {
				old = spec.Default
			}
			merged := spec.Agg(old, u.Val)
			if spec.Eq(old, merged) {
				continue
			}
			global[u.ID] = merged
			if seen {
				changed[p].val, changed[p].winner = merged, w
				continue
			}
			pos[u.ID] = len(changed)
			changed = append(changed, changeRec[V]{id: u.ID, val: merged, winner: w})
		}
	}
	slices.SortFunc(changed, func(a, b changeRec[V]) int { return int(a.id - b.id) })
	return changed
}

// TestFoldMergedMatchesSerialReference: below and above the parallel
// threshold, over two supersteps (the second meets retained global values),
// the merged change list is the reference's — one record per changed node,
// ascending by ID, final value, winning worker — for a convergent min
// variable and for a queue variable whose aggregate is order-sensitive.
func TestFoldMergedMatchesSerialReference(t *testing.T) {
	const workers = 5
	minSpec := VarSpec[float64]{
		Default: math.Inf(1),
		Agg:     math.Min,
		Eq:      func(a, b float64) bool { return a == b },
	}
	// a queue of report values: Agg appends, so the fold order shows
	queueSpec := VarSpec[[]int]{
		Agg:     func(a, b []int) []int { return append(slices.Clone(a), b...) },
		Eq:      func(a, b []int) bool { return slices.Equal(a, b) },
		Consume: true,
	}
	for _, perWorker := range []int{20, 2000} {
		rng := rand.New(rand.NewSource(int64(perWorker)))
		reports := func() [][]graph.ID { // per worker: distinct IDs, ascending, overlapping across workers
			out := make([][]graph.ID, workers)
			for w := 1; w < workers; w++ { // worker 0 stays unscheduled
				seen := map[graph.ID]bool{}
				for len(out[w]) < perWorker {
					if id := graph.ID(rng.Intn(3 * perWorker)); !seen[id] {
						seen[id] = true
						out[w] = append(out[w], id)
					}
				}
				slices.Sort(out[w])
			}
			return out
		}
		fMin, gMin := newFoldState(minSpec, workers), map[graph.ID]float64{}
		fQ := newFoldState(queueSpec, workers)
		for step := 0; step < 2; step++ {
			repMin := make([]*workerReply[float64], workers)
			repQ := make([]*workerReply[[]int], workers)
			for w, ids := range reports() {
				if ids == nil {
					continue
				}
				repMin[w], repQ[w] = &workerReply[float64]{}, &workerReply[[]int]{}
				for _, id := range ids {
					repMin[w].changes = append(repMin[w].changes, VarUpdate[float64]{ID: id, Val: float64(rng.Intn(8))})
					repQ[w].changes = append(repQ[w].changes, VarUpdate[[]int]{ID: id, Val: []int{w}})
				}
			}
			if err := fMin.fold(repMin, true); err != nil {
				t.Fatal(err)
			}
			if want := refFold(minSpec, gMin, repMin); !reflect.DeepEqual(fMin.merged, want) {
				t.Fatalf("min, %d per worker, step %d: merged differs from the reference (%d vs %d records)", perWorker, step, len(fMin.merged), len(want))
			}
			if err := fQ.fold(repQ, false); err != nil {
				t.Fatal(err)
			}
			if want := refFold(queueSpec, nil, repQ); !reflect.DeepEqual(fQ.merged, want) {
				t.Fatalf("queue, %d per worker, step %d: merged differs from the reference (%d vs %d records)", perWorker, step, len(fQ.merged), len(want))
			}
		}
	}
}
