package engine

import (
	"math"
	"testing"

	"grape/internal/partition"
)

// TestSuperstepAllocatesNothing: in steady state the update-parameter path of
// one IncEval superstep — the worker's flush, the coordinator's fold and
// route, the receiver's apply — allocates no object, at 16 updates and at
// 8 192, with the declared order checked on every change: every buffer is
// the pooled scratch's (the contexts, the fold), and nothing on the way
// builds a map, a record list or a sort. A vector-valued variable allocates
// what its own Agg returns, here nothing.
func TestSuperstepAllocatesNothing(t *testing.T) {
	const n = 8192
	layout := matching(t, n) // fragment 0 holds a copy of each of fragment 1's n vertices
	scalar := declared(VarSpec[float64]{Default: math.Inf(1), Agg: math.Min, Less: func(a, b float64) bool { return a < b }})
	vector := declared(VarSpec[[]float64]{Agg: func(old, new []float64) []float64 { return new }})
	vecs := make([][]float64, 0, 1<<16)
	for range cap(vecs) {
		vecs = append(vecs, []float64{float64(len(vecs)), 1, 2})
	}
	superstepAllocs(t, "scalar", layout, scalar, func(round int) float64 { return -float64(round) })
	superstepAllocs(t, "vector", layout, vector, func(round int) []float64 { return vecs[round] })
}

func superstepAllocs[V any](t *testing.T, what string, layout *partition.Layout, spec vars[V], fresh func(round int) V) {
	t.Helper()
	sender, receiver := newContext(layout.Fragments[0], spec), newContext(layout.Fragments[1], spec)
	fold := newFoldState(spec, layout)
	replies := []*workerReply[V]{{}, nil}
	border := sender.Frag.BorderIndices()
	round := 0
	for _, k := range []int{len(border), 16} {
		superstep := func() {
			round++
			v := fresh(round) // a value no round has shipped: every update moves the fold and the receiver
			for _, i := range border[:k] {
				sender.SetAt(i, v)
			}
			replies[0].changes = sender.flush()
			if err := fold.fold(replies); err != nil {
				t.Fatal(err)
			}
			route, scheduled := fold.buildRoute()
			receiver.apply(route[1])
			if scheduled != 1 || len(route[1]) != k || len(receiver.UpdatedAt()) != k {
				t.Fatalf("%s: %d updates shipped, %d routed to %d workers, %d applied", what, k, len(route[1]), scheduled, len(receiver.UpdatedAt()))
			}
		}
		superstep() // grow every reused buffer to this batch's size
		if got := testing.AllocsPerRun(20, superstep); got != 0 {
			t.Fatalf("%s: a superstep of %d updates allocates %.0f objects, want none", what, k, got)
		}
	}
}
