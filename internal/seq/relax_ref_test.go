package seq

import (
	"container/heap"
	"math/rand"
	"testing"

	"grape/internal/graph"
)

// refHeap is the container/heap min-heap RelaxIdx used before minHeap, kept
// as the reference the typed heap is held to.
type refHeap struct {
	idx  []int32
	dist []float64
}

func (h *refHeap) Len() int           { return len(h.idx) }
func (h *refHeap) Less(i, j int) bool { return h.dist[i] < h.dist[j] }
func (h *refHeap) Swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}
func (h *refHeap) Push(x any) {
	e := x.(heapEntry[int32])
	h.idx = append(h.idx, e.k)
	h.dist = append(h.dist, e.d)
}
func (h *refHeap) Pop() any {
	n := len(h.idx) - 1
	e := heapEntry[int32]{h.dist[n], h.idx[n]}
	h.idx, h.dist = h.idx[:n], h.dist[:n]
	return e
}

// relaxRef is RelaxIdx over refHeap.
func relaxRef(g *graph.Graph, rev bool, seeds []int32, dist []float64) int64 {
	var work int64
	h := &refHeap{}
	for _, s := range seeds {
		heap.Push(h, heapEntry[int32]{dist[s], s})
		work++
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(heapEntry[int32])
		work++
		if e.d > dist[e.k] {
			continue
		}
		edges := g.OutAt(e.k)
		if rev {
			edges = g.InAt(e.k)
		}
		for _, edge := range edges {
			work++
			if nd := e.d + edge.W; nd < dist[edge.To] {
				dist[edge.To] = nd
				heap.Push(h, heapEntry[int32]{nd, edge.To})
				work++
			}
		}
	}
	return work
}

// TestRelaxIdxMatchesContainerHeap: on random weighted graphs with zero-weight
// edges, equal-distance ties and duplicate seeds, the typed heap reaches the
// reference's distances — and, popping ties in the same order, its work count.
func TestRelaxIdxMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		g := graph.New()
		for v := 0; v < n; v++ {
			g.AddVertex(graph.ID(v), "")
		}
		for e := 0; e < 4*n; e++ {
			// a third of the weights are 0 and the rest small integers, so
			// many entries tie
			g.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), float64(max(0, rng.Intn(6)-2)))
		}
		g.Freeze()
		for _, rev := range []bool{false, true} {
			var seeds []int32
			for k := 0; k < 1+rng.Intn(5); k++ {
				s := int32(rng.Intn(n))
				seeds = append(seeds, s, s) // every seed twice
			}
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = Inf, Inf
			}
			for _, s := range seeds {
				got[s], want[s] = 0, 0
			}
			workGot := RelaxIdx(g, rev, seeds,
				func(i int32) float64 { return got[i] },
				func(i int32, d float64) { got[i] = d })
			workWant := relaxRef(g, rev, seeds, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d rev=%v: vertex %d at %g, reference %g", seed, rev, i, got[i], want[i])
				}
			}
			if workGot != workWant {
				t.Fatalf("seed %d rev=%v: work %d, reference %d", seed, rev, workGot, workWant)
			}
		}
	}
}
