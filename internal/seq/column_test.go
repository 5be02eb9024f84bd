package seq

import (
	"cmp"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// relaxGraph is a random graph for the column-kernel tests: directed
// with a third of the weights 0 (kind 0), a directed DAG with negative
// weights (kind 1; no negative cycle in either direction) or undirected with
// zero weights (kind 2).
func relaxGraph(rng *rand.Rand, kind int) *graph.Graph {
	n := 20 + rng.Intn(150)
	g := graph.NewBuilder()
	if kind == 2 {
		g = graph.NewUndirectedBuilder()
	}
	for v := 0; v < n; v++ {
		g.AddVertex(graph.ID(v), "")
	}
	order := rng.Perm(n) // a DAG's edges run forward in this order
	for e := 0; e < 3*n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		w := float64(max(0, rng.Intn(6)-2))
		if kind == 1 {
			if a == b {
				continue
			}
			a, b = order[min(a, b)], order[max(a, b)]
			w = float64(rng.Intn(11)-5) + rng.Float64()
		}
		g.AddEdge(graph.ID(a), graph.ID(b), w)
	}
	return g.Graph()
}

// TestRelaxColMatchesRelaxIdx: on random directed and undirected graphs with
// zero-weight and negative-weight edges, from several seeds, along out- and
// in-edges, RelaxCol on every column of a 1-, 2- and 3-wide array reaches
// RelaxIdx's distances with RelaxIdx's work, leaves the other columns alone,
// and lists each row it lowers once, in the order RelaxIdx first lowers it,
// after the rows the caller had already listed.
func TestRelaxColMatchesRelaxIdx(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := relaxGraph(rng, int(seed%3))
		n := g.NumVertices()
		for _, rev := range []bool{false, true} {
			var seeds []int32
			for range 1 + rng.Intn(6) {
				s := int32(rng.Intn(n))
				seeds = append(seeds, s, s) // every seed twice
			}
			for w := 1; w <= 3; w++ {
				for k := 0; k < w; k++ {
					dist := make([]float64, n*w)
					for i := range dist {
						dist[i] = float64(rng.Intn(4)) // other columns: must not move
					}
					want := make([]float64, n)
					for i := range n {
						dist[i*w+k], want[i] = Inf, Inf
					}
					for _, s := range seeds {
						d := float64(rng.Intn(3))
						dist[int(s)*w+k], want[s] = d, d
					}
					before := slices.Clone(dist)
					lowered := make([]bool, n)
					var rows, wantRows []int32
					for range rng.Intn(4) { // rows the caller listed already
						if i := int32(rng.Intn(n)); !lowered[i] {
							lowered[i] = true
							rows, wantRows = append(rows, i), append(wantRows, i)
						}
					}
					wantLowered := slices.Clone(lowered)
					workWant := RelaxIdx(g, rev, seeds,
						func(i int32) float64 { return want[i] },
						func(i int32, d float64) {
							want[i] = d
							if !wantLowered[i] {
								wantLowered[i] = true
								wantRows = append(wantRows, i)
							}
						})
					workGot, rows := RelaxCol(g, rev, seeds, dist, w, k, lowered, rows)
					if workGot != workWant {
						t.Fatalf("seed %d rev=%v w=%d k=%d: work %d, RelaxIdx %d", seed, rev, w, k, workGot, workWant)
					}
					for i := range n {
						for c := 0; c < w; c++ {
							got, exp := dist[i*w+c], before[i*w+c]
							if c == k {
								exp = want[i]
							}
							if math.Float64bits(got) != math.Float64bits(exp) {
								t.Fatalf("seed %d rev=%v w=%d k=%d: row %d column %d at %g, want %g", seed, rev, w, k, i, c, got, exp)
							}
						}
					}
					if !slices.Equal(rows, wantRows) || !slices.Equal(lowered, wantLowered) {
						t.Fatalf("seed %d rev=%v w=%d k=%d: rows %v, want %v", seed, rev, w, k, rows, wantRows)
					}
				}
			}
		}
	}
}

// manySeedsCol is manySeeds on column k of an n×w array, run as keyword
// runs it: each run restores the seeds' distances, clears the previous run's
// marks and relaxes, listing the lowered rows in the same slice.
func manySeedsCol(g *graph.Graph, w, k int) func() {
	col := make([]float64, g.NumVertices())
	dist := make([]float64, w*len(col))
	lowered := make([]bool, len(col))
	var rows []int32
	seeds, reset := manySeeds(g, col)
	return func() {
		reset()
		for i, d := range col {
			dist[i*w+k] = d
		}
		for _, i := range rows {
			lowered[i] = false
		}
		_, rows = RelaxCol(g, true, seeds, dist, w, k, lowered, rows[:0])
	}
}

// TestRelaxColAllocatesNothing: once its pooled queue and the caller's rows
// have grown, a column relaxation allocates nothing.
func TestRelaxColAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	run := manySeedsCol(gen.PreferentialAttachment(10000, 5, 1), 2, 1)
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warmed RelaxCol allocated %.1f objects per run, want 0", allocs)
	}
}

// rankCase is one candidate of the ranking tests; ref is its input position.
type rankCase struct {
	score float64
	root  graph.ID
	ref   int64
}

// TestRankingMatchesComparator: Ranking orders candidates exactly as
// slices.SortFunc under KeywordSearch's former comparator (score, then root,
// by cmp.Compare), keeps each score's bits (-0 stays -0), and hands back each
// candidate's own distances. Roots arrive shuffled, so a ranking that broke
// ties by arrival order fails.
func TestRankingMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero, huge := math.Copysign(0, -1), math.MaxFloat64
	for _, tc := range []struct {
		name  string
		score func(i int) float64
	}{
		{"tied", func(int) float64 { return 3 }},
		{"distinct", func(i int) float64 { return float64(i) * (1 + rng.Float64()) }},
		{"mixed", func(int) float64 { return float64(rng.Intn(7)) }},
		{"negative", func(int) float64 { return -float64(rng.Intn(5)) - rng.Float64()*float64(rng.Intn(2)) }},
		{"zeros", func(int) float64 { return []float64{0, negZero}[rng.Intn(2)] }},
		{"extremes", func(int) float64 {
			return []float64{huge + huge, // +Inf from overflow
				math.Inf(-1), math.NaN(), 5e-324, -5e-324,
				math.MaxFloat64, -math.MaxFloat64, 1, negZero, 0, rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))}[rng.Intn(11)]
		}},
	} {
		name, score := tc.name, tc.score
		for _, n := range []int{0, 1, 2, 10000} {
			for _, span := range []int64{1, 1 << 40} { // roots near 0 (some negative) or spread wide
				cands := make([]rankCase, n)
				for i, p := range rng.Perm(n) {
					cands[i] = rankCase{score(i), graph.ID((int64(p) - int64(n)/3) * span), int64(i)}
				}
				r := NewRanking(n)
				for _, c := range cands {
					r.Add(c.score, c.root, c.ref)
				}
				got := r.Matches(1, func(ref int64) []float64 { return []float64{float64(ref)} })
				want := slices.Clone(cands)
				slices.SortFunc(want, func(a, b rankCase) int {
					if c := cmp.Compare(a.score, b.score); c != 0 {
						return c
					}
					return cmp.Compare(a.root, b.root)
				})
				if len(got) != n || (n == 0) != (got == nil) {
					t.Fatalf("%s n=%d: %d matches (nil %v)", name, n, len(got), got == nil)
				}
				for j, m := range got {
					w := want[j]
					if m.Root != w.root || math.Float64bits(m.Score) != math.Float64bits(w.score) || m.Dists[0] != float64(w.ref) {
						t.Fatalf("%s n=%d span=%d: rank %d is (%g, %d, ref %g), want (%g, %d, ref %d)",
							name, n, span, j, m.Score, m.Root, m.Dists[0], w.score, w.root, w.ref)
					}
				}
			}
		}
	}
}
