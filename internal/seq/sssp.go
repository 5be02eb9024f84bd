// Package seq contains the sequential graph algorithms of the reproduction —
// the "conventional graph algorithms covered in undergraduate textbooks" that
// GRAPE parallelizes as a whole. They serve three roles: the bodies of PEval
// in the PIE programs, ground truth in cross-engine tests, and the
// single-worker baselines in benchmarks.
//
// Functions that participate in PEval/IncEval report their work in elementary
// units (heap operations, edge relaxations, refinement steps) so the engines
// can count each worker's work per superstep.
package seq

import (
	"math"
	"sync"

	"grape/internal/graph"
)

// Inf is the "unreached" distance.
var Inf = math.Inf(1)

// minHeap is the binary min-heap of (distance, key) entries behind every
// relaxation: K is a vertex ID on the sparse path and a dense vertex index on
// the frozen one. It is container/heap's sift-up / sift-down spelled out over
// a typed slice — the same comparisons and swaps in the same order, so
// entries of equal distance pop in the order they always did and the work
// counts of Relax and RelaxIdx agree — without boxing every entry in an `any`.
type minHeap[K any] []heapEntry[K]

type heapEntry[K any] struct {
	d float64
	k K
}

func (h *minHeap[K]) push(k K, d float64) {
	s := append(*h, heapEntry[K]{d, k})
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *minHeap[K]) pop() (K, float64) {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].d < s[j].d {
			j = r
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n].k, s[n].d
}

// Relax runs Dijkstra-style label-correcting relaxation on g starting from
// seeds, reading and writing distances through get/set. It assumes the seed
// distances were already lowered by the caller and only ever decreases
// distances, which makes it serve simultaneously as:
//
//   - PEval for SSSP (seeds = {source}, all distances ∞), where it is exactly
//     Dijkstra's algorithm, and
//   - a bounded IncEval in the sense of Ramalingam–Reps: after a batch of
//     border-distance decreases (seeds = changed nodes), the work done is
//     proportional to the nodes whose distance actually changes (|CHANGED|
//     and their incident edges), not to |F_i|.
//
// It returns the number of work units spent (heap pushes + edge relaxations).
func Relax(g *graph.Graph, seeds []graph.ID, get func(graph.ID) float64, set func(graph.ID, float64)) int64 {
	var work int64
	var h minHeap[graph.ID]
	for _, s := range seeds {
		if !g.Has(s) {
			continue
		}
		h.push(s, get(s))
		work++
	}
	for len(h) > 0 {
		id, d := h.pop()
		work++
		if d > get(id) { // stale entry
			continue
		}
		for _, edge := range g.Out(id) {
			work++
			nd := d + edge.W
			if nd < get(edge.To) {
				set(edge.To, nd)
				h.push(edge.To, nd)
				work++
			}
		}
	}
	return work
}

// idxHeapPool recycles relaxation heaps across RelaxIdx calls: the engine
// invokes one relaxation per worker per superstep, and the heap's backing
// array is the only allocation on that path.
var idxHeapPool = sync.Pool{New: func() any { return new(minHeap[int32]) }}

// RelaxIdx is Relax over a frozen graph's CSR form: seeds, reads and writes
// are addressed by dense vertex index and every edge hop lands on the packed
// dense target — no hash lookups anywhere on the path. With rev=true it
// relaxes along in-edges (keyword search). Work accounting matches Relax
// exactly.
func RelaxIdx(g *graph.Graph, rev bool, seeds []int32, get func(int32) float64, set func(int32, float64)) int64 {
	var work int64
	h := idxHeapPool.Get().(*minHeap[int32])
	defer func() {
		*h = (*h)[:0]
		idxHeapPool.Put(h)
	}()
	for _, s := range seeds {
		h.push(s, get(s))
		work++
	}
	for len(*h) > 0 {
		i, d := h.pop()
		work++
		if d > get(i) { // stale entry
			continue
		}
		var edges []graph.DenseEdge
		if rev {
			edges = g.InAt(i)
		} else {
			edges = g.OutAt(i)
		}
		for _, edge := range edges {
			work++
			nd := d + edge.W
			if nd < get(edge.To) {
				set(edge.To, nd)
				h.push(edge.To, nd)
				work++
			}
		}
	}
	return work
}

// Dijkstra computes single-source shortest distances over g from src.
// Unreachable vertices are absent from the result.
func Dijkstra(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	if g.Frozen() {
		return dijkstraIdx(g, src)
	}
	dist := map[graph.ID]float64{}
	if !g.Has(src) {
		return dist
	}
	dist[src] = 0
	get := func(id graph.ID) float64 {
		if d, ok := dist[id]; ok {
			return d
		}
		return Inf
	}
	set := func(id graph.ID, d float64) { dist[id] = d }
	Relax(g, []graph.ID{src}, get, set)
	return dist
}

// dijkstraIdx is Dijkstra over the CSR form: distances live in a flat array
// indexed by dense vertex index and only the final result builds a map.
func dijkstraIdx(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	out := map[graph.ID]float64{}
	si, ok := g.Index(src)
	if !ok {
		return out
	}
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[si] = 0
	RelaxIdx(g, false, []int32{si},
		func(i int32) float64 { return dist[i] },
		func(i int32, d float64) { dist[i] = d })
	for i, d := range dist {
		if d < Inf {
			out[g.IDAt(int32(i))] = d
		}
	}
	return out
}

// BellmanFord computes the same distances as Dijkstra by |V|-1 rounds of
// full-edge relaxation. It exists purely as an independent cross-check for
// property-based tests.
func BellmanFord(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	dist := map[graph.ID]float64{}
	if !g.Has(src) {
		return dist
	}
	dist[src] = 0
	n := g.NumVertices()
	for round := 0; round < n; round++ {
		changed := false
		for _, u := range g.Vertices() {
			du, ok := dist[u]
			if !ok {
				continue
			}
			for _, e := range g.Out(u) {
				nd := du + e.W
				if dv, ok := dist[e.To]; !ok || nd < dv {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
