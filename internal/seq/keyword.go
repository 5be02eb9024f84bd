package seq

import (
	"math"
	"slices"
	"sync"

	"grape/internal/graph"
)

// keywordDist fills column k of the row-major n×w array dist with every
// vertex's weighted distance to the nearest holder of word following out-edges
// (0 for a holder, Inf if none is reachable): multi-source Dijkstra from the
// holders along the in-edges of g, with the engine's kernel.
func keywordDist(g *graph.Graph, word string, dist []float64, w, k int) {
	var seeds []int32
	for i := range g.NumVertices() {
		dist[i*w+k] = Inf
		if slices.Contains(g.PropsAt(int32(i)), word) {
			dist[i*w+k] = 0
			seeds = append(seeds, int32(i))
		}
	}
	RelaxCol(g, true, seeds, dist, w, k, nil, nil)
}

// KeywordMatch is one keyword-search answer: a root vertex that reaches a
// holder of every query keyword within the distance bound, with the distance
// per keyword.
type KeywordMatch struct {
	Root  graph.ID
	Dists []float64 // parallel to the query's keyword list
	Score float64   // sum of distances; lower is better
}

// KeywordSearch returns the roots from which every keyword in the query is
// reachable within bound, ranked by total distance — the demo's Keyword
// query class.
func KeywordSearch(g *graph.Graph, keywords []string, bound float64) []KeywordMatch {
	nk := len(keywords)
	dist := make([]float64, g.NumVertices()*nk) // row-major, one column per keyword
	for k, w := range keywords {
		keywordDist(g, w, dist, nk, k)
	}
	r := NewRanking(g.NumVertices())
roots:
	for i, v := range g.Vertices() {
		score := 0.0
		for _, d := range dist[i*nk : (i+1)*nk] {
			if d == Inf || d > bound {
				continue roots
			}
			score += d
		}
		r.Add(score, v, int64(i))
	}
	return r.Matches(nk, func(i int64) []float64 { return dist[int(i)*nk : (int(i)+1)*nk] })
}

// Ranking orders candidates by score, then root, as cmp.Compare orders each
// (-0 ties +0, NaN first): an LSD radix sort over order-preserving 64-bit
// keys, one stable pass per byte position in which the keys differ. Its
// pooled scratch is pointer-free, so it keeps no answer alive.
type Ranking struct{ keys, tmp []rankKey }

type rankKey struct {
	score float64
	root  graph.ID
	ref   int64 // the caller's handle on the candidate's distances
}

var rankingPool = sync.Pool{New: func() any { return new(Ranking) }}

// NewRanking takes an empty Ranking with room for n candidates from the pool.
func NewRanking(n int) *Ranking {
	r := rankingPool.Get().(*Ranking)
	r.keys = slices.Grow(r.keys, n)
	return r
}

// Add queues a candidate root with its score and the caller's ref.
func (r *Ranking) Add(score float64, root graph.ID, ref int64) {
	r.keys = append(r.keys, rankKey{score, root, ref})
}

// Matches ranks the candidates and builds the answer once, in rank order,
// its nk-wide distance vectors copied from dists(ref) into one arena; nil if
// there is no candidate. r goes back to the pool and must not be used again.
func (r *Ranking) Matches(nk int, dists func(ref int64) []float64) []KeywordMatch {
	var out []KeywordMatch
	if n := len(r.keys); n > 0 {
		r.sort()
		out = make([]KeywordMatch, n)
		arena := make([]float64, n*nk)
		for j, key := range r.keys {
			row := arena[j*nk : (j+1)*nk : (j+1)*nk]
			copy(row, dists(key.ref))
			out[j] = KeywordMatch{Root: key.root, Dists: row, Score: key.score}
		}
	}
	r.reset()
	rankingPool.Put(r)
	return out
}

// reset empties r for the next ranking, keeping both arrays' capacity.
func (r *Ranking) reset() { r.keys, r.tmp = r.keys[:0], r.tmp[:0] }

// word is the key's score (hi) or root as an unsigned integer in the same
// order: NaN is 0, -0 is +0, and a float's sign bit is flipped, with every
// other bit too when it is negative.
func (k rankKey) word(hi bool) uint64 {
	if !hi {
		return uint64(k.root) ^ 1<<63
	}
	if k.score != k.score {
		return 0
	}
	b := math.Float64bits(k.score + 0) // -0 + 0 is +0
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sort orders r.keys by (score word, root word), least significant byte
// first, skipping every byte position in which all keys agree.
func (r *Ranking) sort() {
	r.tmp = slices.Grow(r.tmp[:0], len(r.keys))[:len(r.keys)]
	first := r.keys[0]
	var diff [2]uint64 // root, score: the bits in which some key differs from the first
	for _, k := range r.keys[1:] {
		diff[0] |= k.word(false) ^ first.word(false)
		diff[1] |= k.word(true) ^ first.word(true)
	}
	src, dst := r.keys, r.tmp
	for pass := range 16 {
		hi, shift := pass >= 8, uint(pass%8)*8
		if byte(diff[pass/8]>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, k := range src {
			at[byte(k.word(hi)>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, k := range src {
			b := byte(k.word(hi) >> shift)
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	r.keys, r.tmp = src, dst
}
