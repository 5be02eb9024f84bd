// Package seq contains the sequential graph algorithms of the reproduction —
// the "conventional graph algorithms covered in undergraduate textbooks" that
// GRAPE parallelizes as a whole. They serve three roles: the bodies of PEval
// in the PIE programs, ground truth in cross-engine tests, and the
// single-worker baselines in benchmarks.
//
// Functions that participate in PEval/IncEval report their work in elementary
// units (queue operations, edge relaxations, refinement steps) so the engines
// can count each worker's work per superstep.
package seq

import (
	"math"
	"math/bits"
	"sync"

	"grape/internal/graph"
)

// Inf is the "unreached" distance.
var Inf = math.Inf(1)

// radixQueue is the monotone priority queue of (distance, key) entries behind
// every relaxation — the radix heap of Ahuja, Mehlhorn, Orlin and Tarjan
// (1990). K is a dense vertex index (the sparse reference relaxation in the
// tests keys it by vertex ID).
//
// An entry's key is the bit pattern of its distance: for non-negative floats
// that order is the numeric one. Bucket 0 holds the entries whose key is at
// most last, the key of the latest refill; bucket b > 0 holds the keys above
// last whose highest bit differing from last is bit b-1, and bit b of mask
// marks bucket b non-empty. A pop takes from bucket 0; when that is empty it
// refills it from the lowest non-empty bucket, whose minimum becomes last and
// whose other entries move to lower buckets. An entry only ever moves down,
// so at most 63 times, and when distances repeat — unit weights, many seeds
// at a few distances — an entry moves about once.
//
// With non-negative weights every push is at least last, so bucket 0 holds
// only keys equal to last and pops come out in Dijkstra order (ties in
// bucket 0 pop last-in first-out). A negative weight can push a distance
// below last; it joins bucket 0 and pops before every other bucket, so no
// entry is lost and the relaxation stays label-correcting. The order of pops
// depends on distances alone, never on K, so RelaxIdx and RelaxCol pop the
// same sequence over the same graph.
type radixQueue[K any] struct {
	last    uint64
	mask    uint64
	buckets [64][]radixEntry[K]
}

type radixEntry[K any] struct {
	d float64
	k K
}

// radixKey is d's queue key: its bit pattern, with -0, every negative
// distance and NaN folded to 0, the least key. No key has the sign bit set,
// so every bucket index is below 64.
func radixKey(d float64) uint64 {
	if !(d > 0) {
		return 0
	}
	return math.Float64bits(d)
}

func (q *radixQueue[K]) empty() bool { return q.mask == 0 }

func (q *radixQueue[K]) push(k K, d float64) {
	b := 0
	if key := radixKey(d); key > q.last {
		b = bits.Len64(key ^ q.last)
	}
	q.buckets[b] = append(q.buckets[b], radixEntry[K]{d, k})
	q.mask |= 1 << b
}

// pop removes and returns an entry of the least distance; the queue must not
// be empty.
func (q *radixQueue[K]) pop() (K, float64) {
	if q.mask&1 == 0 {
		q.refill()
	}
	s := q.buckets[0]
	n := len(s) - 1
	e := s[n]
	q.buckets[0] = s[:n]
	if n == 0 {
		q.mask &^= 1
	}
	return e.k, e.d
}

// refill empties the lowest non-empty bucket into the ones below it around
// its minimum, which becomes last and lands in bucket 0.
func (q *radixQueue[K]) refill() {
	b := bits.TrailingZeros64(q.mask)
	s := q.buckets[b]
	last := radixKey(s[0].d)
	for _, e := range s[1:] {
		last = min(last, radixKey(e.d))
	}
	q.last = last
	for _, e := range s {
		nb := bits.Len64(radixKey(e.d) ^ last)
		q.buckets[nb] = append(q.buckets[nb], e)
		q.mask |= 1 << nb
	}
	q.buckets[b] = s[:0]
	q.mask &^= 1 << b
}

// reset empties the queue for a new relaxation, keeping its buckets'
// capacity.
func (q *radixQueue[K]) reset() {
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		q.buckets[b] = q.buckets[b][:0]
	}
	q.last, q.mask = 0, 0
}

// idxQueuePool recycles relaxation queues across RelaxIdx and RelaxCol calls:
// the engine invokes one relaxation per worker per superstep, and the queue's
// buckets are the only allocation on that path.
var idxQueuePool = sync.Pool{New: func() any { return new(radixQueue[int32]) }}

// RelaxIdx runs Dijkstra-style label-correcting relaxation over a
// graph's CSR form from seeds, reading and writing distances by dense vertex
// index through get/set; with rev=true it relaxes along in-edges. It assumes
// the seed distances were already lowered by the caller and only ever
// decreases distances, which makes it serve simultaneously as:
//
//   - PEval for SSSP (seeds = {source}, all distances ∞), where it is exactly
//     Dijkstra's algorithm, and
//   - a bounded IncEval in the sense of Ramalingam–Reps: after a batch of
//     border-distance decreases (seeds = changed nodes), the work done is
//     proportional to the nodes whose distance actually changes (|CHANGED|
//     and their incident edges), not to |F_i|.
//
// It returns the number of work units spent (queue pushes, queue pops and
// edge scans). It serves distances that live behind get/set, such as the
// engine's variables; distances in a plain array relax with RelaxCol.
func RelaxIdx(g *graph.Graph, rev bool, seeds []int32, get func(int32) float64, set func(int32, float64)) int64 {
	var work int64
	q := idxQueuePool.Get().(*radixQueue[int32])
	defer func() {
		q.reset()
		idxQueuePool.Put(q)
	}()
	for _, s := range seeds {
		q.push(s, get(s))
		work++
	}
	for !q.empty() {
		i, d := q.pop()
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
				q.push(edge.To, nd)
				work++
			}
		}
	}
	return work
}

// RelaxCol is RelaxIdx, with equal work, over column k of the row-major n×w
// array dist (vertex i's distance is dist[i*w+k]), reading the CSR arrays and
// calling nothing per edge. Given lowered, it marks each row it lowers while
// unmarked and appends it to rows, which it returns; seeds are not marked.
func RelaxCol(g *graph.Graph, rev bool, seeds []int32, dist []float64, w, k int, lowered []bool, rows []int32) (int64, []int32) {
	off, edges := g.OutCSR()
	if rev {
		off, edges = g.InCSR()
	}
	var work int64
	q := idxQueuePool.Get().(*radixQueue[int32])
	defer func() {
		q.reset()
		idxQueuePool.Put(q)
	}()
	for _, s := range seeds {
		q.push(s, dist[int(s)*w+k])
		work++
	}
	for !q.empty() {
		i, d := q.pop()
		work++
		if d > dist[int(i)*w+k] { // stale entry
			continue
		}
		for _, edge := range edges[off[i]:off[i+1]] {
			work++
			nd := d + edge.W
			if j := int(edge.To)*w + k; nd < dist[j] {
				dist[j] = nd
				if lowered != nil && !lowered[edge.To] {
					lowered[edge.To] = true
					rows = append(rows, edge.To)
				}
				q.push(edge.To, nd)
				work++
			}
		}
	}
	return work, rows
}

// Dijkstra computes single-source shortest distances over g from src on its
// CSR form: distances live in a flat array indexed by dense vertex index and
// only the result builds a map. Unreachable vertices are absent from the
// result.
func Dijkstra(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
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
	RelaxCol(g, false, []int32{si}, dist, 1, 0, nil, nil)
	for i, d := range dist {
		if d < Inf {
			out[g.IDAt(int32(i))] = d
		}
	}
	return out
}
