package seq

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"grape/internal/graph"
)

// Relax is RelaxIdx addressed by vertex ID:
// the sparse reference the dense kernels are held to, with the same queue and
// the same work accounting (queue pushes, queue pops and edge scans).
func Relax(g *graph.Graph, seeds []graph.ID, get func(graph.ID) float64, set func(graph.ID, float64)) int64 {
	var work int64
	q := new(radixQueue[graph.ID])
	for _, s := range seeds {
		if !g.Has(s) {
			continue
		}
		q.push(s, get(s))
		work++
	}
	for !q.empty() {
		id, d := q.pop()
		work++
		if d > get(id) { // stale entry
			continue
		}
		for _, edge := range g.Out(id) {
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

// refHeap is a container/heap min-heap, the reference the radix queue is held
// to.
type refHeap struct {
	idx  []int32
	dist []float64
}

type refEntry struct {
	d float64
	k int32
}

func (h *refHeap) Len() int           { return len(h.idx) }
func (h *refHeap) Less(i, j int) bool { return h.dist[i] < h.dist[j] }
func (h *refHeap) Swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}
func (h *refHeap) Push(x any) {
	e := x.(refEntry)
	h.idx = append(h.idx, e.k)
	h.dist = append(h.dist, e.d)
}
func (h *refHeap) Pop() any {
	n := len(h.idx) - 1
	e := refEntry{h.dist[n], h.idx[n]}
	h.idx, h.dist = h.idx[:n], h.dist[:n]
	return e
}

// relaxRef is RelaxIdx over refHeap. It returns the work and the number of
// distances it lowered.
func relaxRef(g *graph.Graph, rev bool, seeds []int32, dist []float64) (work, sets int64) {
	h := &refHeap{}
	for _, s := range seeds {
		heap.Push(h, refEntry{dist[s], s})
		work++
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(refEntry)
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
				heap.Push(h, refEntry{nd, edge.To})
				work++
				sets++
			}
		}
	}
	return work, sets
}

// TestRelaxIdxMatchesContainerHeap: on random weighted graphs with zero-weight
// edges, equal-distance ties and duplicate seeds, the radix queue reaches the
// reference's distances and scans the same edges. Total work is not compared:
// every push is popped once, so work is 2·len(seeds) + 2·(distances lowered)
// + (edges scanned), and how often a vertex is lowered before it settles
// depends on the order ties pop, which the two queues need not share. The
// edges scanned do not: with non-negative weights each vertex is scanned once
// per entry popped at its final distance.
func TestRelaxIdxMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		b := graph.NewBuilder()
		for v := 0; v < n; v++ {
			b.AddVertex(graph.ID(v), "")
		}
		for e := 0; e < 4*n; e++ {
			// a third of the weights are 0 and the rest small integers, so
			// many entries tie
			b.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), float64(max(0, rng.Intn(6)-2)))
		}
		g := b.Graph()
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
			var setsGot int64
			workGot := RelaxIdx(g, rev, seeds,
				func(i int32) float64 { return got[i] },
				func(i int32, d float64) { got[i] = d; setsGot++ })
			workWant, setsWant := relaxRef(g, rev, seeds, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d rev=%v: vertex %d at %g, reference %g", seed, rev, i, got[i], want[i])
				}
			}
			scans := func(work, sets int64) int64 { return work - 2*int64(len(seeds)) - 2*sets }
			if got, want := scans(workGot, setsGot), scans(workWant, setsWant); got != want {
				t.Fatalf("seed %d rev=%v: %d edge scans, reference %d", seed, rev, got, want)
			}
		}
	}
}

// TestRadixQueueOrder: random push/pop sequences that keep the queue's
// monotone contract (no push below the last pop) over ties, 0, -0, +Inf and
// very large and very small floats. Every pop must return an entry of the
// least pending distance, so pops are non-decreasing and, drained, equal the
// pushes sorted.
func TestRadixQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q radixQueue[int32]
		pending := map[int32]float64{} // by entry key: its distance
		last := 0.0                    // the last pop, the floor for pushes
		var popped []float64
		var pushed []float64
		next := func() float64 {
			palette := []float64{
				0, math.Copysign(0, -1), last, math.Nextafter(last, Inf),
				5e-324, 1e-300, 1e-9, 0.5, 1, 1, 2, 3, 3.5, 1e9, 1e300,
				math.MaxFloat64, Inf,
			}
			for {
				var d float64
				if rng.Intn(3) == 0 {
					d = last + float64(rng.Intn(4))*rng.Float64()
				} else {
					d = palette[rng.Intn(len(palette))]
				}
				if d >= last {
					return d
				}
			}
		}
		pop := func() {
			k, d := q.pop()
			want, ok := pending[k]
			if !ok || math.Float64bits(want) != math.Float64bits(d) {
				t.Fatalf("seed %d: popped entry %d at %g, pushed at %g (pending %v)", seed, k, d, want, ok)
			}
			for _, p := range pending {
				if p < d {
					t.Fatalf("seed %d: popped %g while %g is pending", seed, d, p)
				}
			}
			delete(pending, k)
			popped = append(popped, d)
			last = d
		}
		for step, k := 0, int32(0); step < 400; step++ {
			if len(pending) > 0 && rng.Intn(5) < 2 {
				pop()
				continue
			}
			d := next()
			q.push(k, d)
			pending[k] = d
			pushed = append(pushed, d)
			k++
		}
		for !q.empty() {
			pop()
		}
		if len(pending) != 0 {
			t.Fatalf("seed %d: queue empty with %d entries pending", seed, len(pending))
		}
		if !slices.IsSorted(popped) {
			t.Fatalf("seed %d: pops out of order: %v", seed, popped)
		}
		slices.Sort(pushed)
		if !slices.Equal(popped, pushed) {
			t.Fatalf("seed %d: popped %v, pushed %v", seed, popped, pushed)
		}
	}
}

// TestRelaxIdxNegativeWeights: the loader accepts negative weights, so a
// relaxation can push a distance below the last pop. On random DAGs with
// negative weights (no negative cycle, so shortest distances exist) RelaxIdx
// must keep every entry and correct labels until they settle: its distances
// equal Bellman-Ford's, and so do the sparse path's.
func TestRelaxIdxNegativeWeights(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		order := rng.Perm(n) // edges run forward in this order
		gb := graph.NewBuilder()
		for v := 0; v < n; v++ {
			gb.AddVertex(graph.ID(v), "")
		}
		for e := 0; e < 3*n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			w := float64(rng.Intn(11) - 5)
			if rng.Intn(2) == 0 {
				w += rng.Float64()
			}
			gb.AddEdge(graph.ID(order[a]), graph.ID(order[b]), w)
		}
		g := gb.Graph()
		src := graph.ID(order[rng.Intn(n)])
		want := oracleBellmanFord(g, src)

		dist := make([]float64, n)
		for i := range dist {
			dist[i] = Inf
		}
		si, _ := g.Index(src)
		dist[si] = 0
		RelaxIdx(g, false, []int32{si},
			func(i int32) float64 { return dist[i] },
			func(i int32, d float64) { dist[i] = d })
		sparse := Dijkstra(g, src)
		for i, d := range dist {
			id := g.IDAt(int32(i))
			w, ok := want[id]
			if !ok {
				w = Inf
			}
			if d != w {
				t.Fatalf("seed %d: vertex %d at %g, Bellman-Ford %g", seed, id, d, w)
			}
			if s, ok := sparse[id]; ok != (w < Inf) || (ok && s != w) {
				t.Fatalf("seed %d: sparse vertex %d at %g (reached %v), Bellman-Ford %g", seed, id, s, ok, w)
			}
		}
	}
}
