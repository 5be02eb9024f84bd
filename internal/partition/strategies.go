package partition

import (
	"fmt"
	"math"

	"grape/internal/graph"
)

// Hash is the 1D hash partitioner: owner(v) = hash(v) mod n. It ignores
// structure entirely, so it maximizes cross edges — the worst case the
// partition-impact experiment contrasts against.
type Hash struct{}

// Name implements Strategy.
func (Hash) Name() string { return "hash" }

// Partition implements Strategy.
func (Hash) Partition(g *graph.Graph, n int) (*Assignment, error) {
	if err := checkN(g, n); err != nil {
		return nil, err
	}
	a := NewAssignment(g, n)
	for i, id := range g.Vertices() {
		a.SetOwnerAt(int32(i), int(mix(uint64(id))%uint64(n)))
	}
	return a, nil
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Range is the 1D range partitioner: vertices sorted by ID are split into n
// equal contiguous chunks. For generators that assign IDs with spatial
// locality (e.g. the road grid's row-major IDs) this is a cheap locality-
// aware baseline.
type Range struct{}

// Name implements Strategy.
func (Range) Name() string { return "range" }

// Partition implements Strategy.
func (Range) Partition(g *graph.Graph, n int) (*Assignment, error) {
	if err := checkN(g, n); err != nil {
		return nil, err
	}
	order := g.SortedIndices()
	a := NewAssignment(g, n)
	per := (len(order) + n - 1) / n
	for k, i := range order {
		w := k / per
		if w >= n {
			w = n - 1
		}
		a.SetOwnerAt(i, w)
	}
	return a, nil
}

// TwoD partitions a grid-shaped graph into spatial 2D blocks. It assumes
// vertex IDs encode row-major grid coordinates (id = r*Cols + c), which holds
// for gen.RoadGrid. If Cols is zero it infers a near-square grid from the
// maximum ID. Non-grid graphs degrade gracefully to stripes.
type TwoD struct {
	Cols int // columns of the underlying grid; 0 = infer
}

// Name implements Strategy.
func (TwoD) Name() string { return "2d" }

// Partition implements Strategy.
func (t TwoD) Partition(g *graph.Graph, n int) (*Assignment, error) {
	if err := checkN(g, n); err != nil {
		return nil, err
	}
	var maxID graph.ID
	for _, id := range g.Vertices() {
		if id > maxID {
			maxID = id
		}
	}
	cols := t.Cols
	if cols <= 0 {
		cols = int(math.Sqrt(float64(maxID + 1)))
		if cols < 1 {
			cols = 1
		}
	}
	rows := int(maxID)/cols + 1
	// Arrange workers in a pr×pc grid as square as possible.
	pr := int(math.Sqrt(float64(n)))
	for n%pr != 0 {
		pr--
	}
	pc := n / pr
	a := NewAssignment(g, n)
	for i, id := range g.Vertices() {
		r := int(id) / cols
		c := int(id) % cols
		br := r * pr / rows
		if br >= pr {
			br = pr - 1
		}
		bc := c * pc / cols
		if bc >= pc {
			bc = pc - 1
		}
		a.SetOwnerAt(int32(i), br*pc+bc)
	}
	return a, nil
}

// Fennel is the streaming partitioner of Stanton & Kliot / Tsourakakis et
// al., the "streaming-style partition algorithm [8]" the demo registers.
// Vertices arrive one at a time (in ID order) and are placed greedily on the
// worker maximizing |N(v) ∩ S_i| − α·γ·|S_i|^(γ−1), with a hard balance cap.
type Fennel struct {
	Gamma float64 // default 1.5
	Slack float64 // max part size multiplier over ideal, default 1.1
}

// Name implements Strategy.
func (Fennel) Name() string { return "fennel" }

// Partition implements Strategy.
func (f Fennel) Partition(g *graph.Graph, n int) (*Assignment, error) {
	if err := checkN(g, n); err != nil {
		return nil, err
	}
	gamma := f.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	slack := f.Slack
	if slack == 0 {
		slack = 1.1
	}
	nv := g.NumVertices()
	ne := g.NumEdges()
	alpha := math.Sqrt(float64(n)) * float64(ne) / math.Pow(float64(nv), gamma)
	if alpha == 0 {
		alpha = 1
	}
	cap := int(math.Ceil(slack * float64(nv) / float64(n)))
	a := NewAssignment(g, n)
	placed := unplaced(nv)
	sizes := make([]int, n)
	neighborCount := make([]int, n) // scratch
	for _, v := range g.SortedIndices() {
		countPlaced(g, v, placed, neighborCount)
		best, bestScore := -1, math.Inf(-1)
		for w := 0; w < n; w++ {
			if sizes[w] >= cap {
				continue
			}
			score := float64(neighborCount[w]) - alpha*gamma*math.Pow(float64(sizes[w]), gamma-1)
			if score > bestScore {
				best, bestScore = w, score
			}
		}
		if best < 0 { // all at cap (can't happen with slack > 1, but be safe)
			best = argmin(sizes)
		}
		placed[v] = int32(best)
		sizes[best]++
		a.SetOwnerAt(v, best)
	}
	return a, nil
}

// unplaced returns an owner array of nv vertices, each -1: not yet placed.
func unplaced(nv int) []int32 {
	owner := make([]int32, nv)
	for i := range owner {
		owner[i] = -1
	}
	return owner
}

// countPlaced sets counts[w] to the number of v's neighbours, over out- and
// in-edges, that placed puts on part w.
func countPlaced(g *graph.Graph, v int32, placed []int32, counts []int) {
	clear(counts)
	for _, es := range [2][]graph.DenseEdge{g.OutAt(v), g.InAt(v)} {
		for _, e := range es {
			if w := placed[e.To]; w >= 0 {
				counts[w]++
			}
		}
	}
}

func argmin(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// LDG is the linear deterministic greedy streaming partitioner of Stanton &
// Kliot (KDD 2012) — the paper's citation [8] for its "streaming-style
// partition algorithm". A vertex goes to the part with the most neighbors,
// scaled by the part's remaining capacity: score = |N(v) ∩ S_i| · (1 −
// |S_i|/C). Compared to Fennel it penalizes imbalance multiplicatively
// rather than additively.
type LDG struct {
	Slack float64 // capacity multiplier over ideal, default 1.1
}

// Name implements Strategy.
func (LDG) Name() string { return "ldg" }

// Partition implements Strategy.
func (l LDG) Partition(g *graph.Graph, n int) (*Assignment, error) {
	if err := checkN(g, n); err != nil {
		return nil, err
	}
	slack := l.Slack
	if slack == 0 {
		slack = 1.1
	}
	capacity := slack * float64(g.NumVertices()) / float64(n)
	a := NewAssignment(g, n)
	placed := unplaced(g.NumVertices())
	sizes := make([]int, n)
	neighborCount := make([]int, n)
	for _, v := range g.SortedIndices() {
		countPlaced(g, v, placed, neighborCount)
		best, bestScore := -1, math.Inf(-1)
		for w := 0; w < n; w++ {
			if float64(sizes[w]) >= capacity {
				continue
			}
			score := float64(neighborCount[w]) * (1 - float64(sizes[w])/capacity)
			// deterministic tie-break toward the lighter part
			if score > bestScore || (score == bestScore && best >= 0 && sizes[w] < sizes[best]) {
				best, bestScore = w, score
			}
		}
		if best < 0 {
			best = argmin(sizes)
		}
		placed[v] = int32(best)
		sizes[best]++
		a.SetOwnerAt(v, best)
	}
	return a, nil
}

// MetisLike approximates the edge-cut quality of METIS with pure Go: it seeds
// n parts by multi-source BFS region growing (which yields contiguous,
// balanced blocks) and then runs boundary refinement passes that move border
// vertices to the neighboring part with the highest cut gain subject to a
// balance constraint — a Kernighan–Lin/Fiduccia–Mattheyses flavored sweep.
// It is the stand-in for the METIS option in the demo's strategy library.
type MetisLike struct {
	Passes float64 // refinement passes; 0 = default 4
	Slack  float64 // balance slack, default 1.05
}

// Name implements Strategy.
func (MetisLike) Name() string { return "metis" }

// Partition implements Strategy.
func (m MetisLike) Partition(g *graph.Graph, n int) (*Assignment, error) {
	if err := checkN(g, n); err != nil {
		return nil, err
	}
	passes := int(m.Passes)
	if passes == 0 {
		passes = 4
	}
	slack := m.Slack
	if slack == 0 {
		slack = 1.05
	}
	nv := g.NumVertices()
	cap := int(math.Ceil(slack * float64(nv) / float64(n)))

	owner := unplaced(nv)
	sizes := make([]int, n)

	// Phase 1: region growing. Seeds spread across the ID space; each BFS
	// claims unassigned vertices until its part reaches the cap.
	order := g.SortedIndices()
	seedStep := nv / n
	queues := make([][]int32, n)
	for w := range queues {
		queues[w] = []int32{order[min(w*seedStep, nv-1)]}
	}
	assigned := 0
	for assigned < nv {
		progress := false
		for w := 0; w < n && assigned < nv; w++ {
			grew := 0
			for len(queues[w]) > 0 && grew < 8 && sizes[w] < cap {
				v := queues[w][0]
				queues[w] = queues[w][1:]
				if owner[v] >= 0 {
					continue
				}
				owner[v] = int32(w)
				sizes[w]++
				assigned++
				grew++
				progress = true
				for _, es := range [2][]graph.DenseEdge{g.OutAt(v), g.InAt(v)} {
					for _, e := range es {
						if owner[e.To] < 0 {
							queues[w] = append(queues[w], e.To)
						}
					}
				}
			}
		}
		if !progress {
			// Disconnected remainder: reseed the smallest part with the first
			// unassigned vertex.
			w := argmin(sizes)
			for _, v := range order {
				if owner[v] < 0 {
					queues[w] = append(queues[w], v)
					break
				}
			}
			// If even that fails to grow next round, fall back to direct fill.
			stuck := true
			for _, q := range queues {
				if len(q) > 0 {
					stuck = false
					break
				}
			}
			if stuck {
				for _, v := range order {
					if owner[v] < 0 {
						w := argmin(sizes)
						owner[v] = int32(w)
						sizes[w]++
						assigned++
					}
				}
			}
		}
	}

	// Phase 2: boundary refinement. For each border vertex compute the gain
	// of moving it to the neighboring part where it has the most edges.
	degTo := make([]int, n) // scratch
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range order {
			cur := int(owner[v])
			countPlaced(g, v, owner, degTo) // every vertex is placed by now
			best, bestGain := cur, 0
			for w := 0; w < n; w++ {
				if w == cur || sizes[w]+1 > cap {
					continue
				}
				gain := degTo[w] - degTo[cur]
				if gain > bestGain {
					best, bestGain = w, gain
				}
			}
			if best != cur {
				owner[v] = int32(best)
				sizes[cur]--
				sizes[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}

	a := NewAssignment(g, n)
	for i, w := range owner {
		a.SetOwnerAt(int32(i), int(w))
	}
	return a, nil
}

func checkN(g *graph.Graph, n int) error {
	if n < 1 {
		return fmt.Errorf("partition: need at least one worker, got %d", n)
	}
	if g.NumVertices() == 0 {
		return fmt.Errorf("partition: empty graph")
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Quality summarizes a partition for reports.
type Quality struct {
	Strategy    string
	Workers     int
	EdgeCut     int
	CutFraction float64
	Balance     float64
	BorderNodes int
}

// Measure computes Quality for an assignment produced by the named strategy.
func Measure(name string, a *Assignment) Quality {
	cut := a.EdgeCut()
	frac := 0.0
	if a.G.NumEdges() > 0 {
		frac = float64(cut) / float64(a.G.NumEdges())
	}
	return Quality{
		Strategy:    name,
		Workers:     a.N,
		EdgeCut:     cut,
		CutFraction: frac,
		Balance:     a.Balance(),
		BorderNodes: a.BorderCount(),
	}
}
