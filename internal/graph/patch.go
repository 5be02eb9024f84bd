package graph

import "math/bits"

// The patch of a spliced graph. A graph that Splice returns reads its lists
// from its parent's flat CSR wherever the batches since those arrays were
// built left them alone, and from a copy-on-write patch where they did not:
// the patch holds the full new list of every vertex a batch changed or
// appended. The patch is a table of fixed vertex chunks, each a mask and the
// headers of its patched lists, so a splice copies the table (32 bytes per
// 64 vertices), rebuilds the header arrays of the chunks its batch lands in,
// and shares every other header array and every list with its parent.
// Nothing writes a header array or a list once a graph holds it.
//
// A directed graph whose parent had derived its in-edges keeps them the same
// way: the parent's reverse CSR plus a patch of the in-lists of the batch's
// targets. Once a patch holds more than 1/foldFraction of the packed edges,
// Splice folds: it writes fresh flat arrays (out, and in when derived) and
// starts with no patch. That bounds what a patch pins beside the arrays it
// shadows, and the fold's O(|G|) comes due once per that many patched edges.

const (
	chunkBits    = 6 // 64 vertices a chunk: the set mask is a uint64
	chunkLen     = 1 << chunkBits
	chunkMask    = chunkLen - 1
	foldFraction = 16
)

// patch is the copy-on-write overlay of one adjacency direction.
type patch struct {
	chunks []chunk // vertex i's chunk is chunks[i>>chunkBits]
	edges  int     // packed edges the patched lists hold
	packed int     // packed edges of the whole adjacency, patched or not
}

// chunk holds the patched lists of chunkLen consecutive vertices, only
// those: a chunk costs its patched lists' headers, not chunkLen of them. An
// unpatched vertex is told by the mask in the table, with no further read.
type chunk struct {
	set   uint64        // bit k: the chunk's vertex k is patched (its list may be empty)
	lists [][]DenseEdge // the patched lists in vertex order: vertex k's is lists[rank(k)]
}

// rank returns the position in c.lists of the chunk's vertex with bit b.
func (c *chunk) rank(b uint64) int { return bits.OnesCount64(c.set & (b - 1)) }

// list returns vertex i's patched list and true, or false when i reads the
// flat arrays.
func (p *patch) list(i int32) ([]DenseEdge, bool) {
	c := &p.chunks[i>>chunkBits]
	b := uint64(1) << (i & chunkMask)
	if c.set&b == 0 {
		return nil, false
	}
	return c.lists[c.rank(b)], true
}

// run is one vertex's new list, as a splice hands it to with.
type run struct {
	u  int32
	es []DenseEdge
}

// with returns p (nil for none) over a graph of n vertices with each run's
// list in place of its vertex's, holding packed edges in all. The chunk
// table is copied, and each chunk runs land in is rebuilt, once; runs ascend
// by vertex. With no runs, which leave the edges as they were, it is p.
func (p *patch) with(n int32, runs []run, packed int) *patch {
	if len(runs) == 0 {
		return p
	}
	np := &patch{chunks: make([]chunk, (n+chunkMask)>>chunkBits), packed: packed}
	if p != nil {
		copy(np.chunks, p.chunks)
		np.edges = p.edges
	}
	for len(runs) > 0 {
		k := runs[0].u >> chunkBits
		m := 1 // the runs landing in chunk k
		for m < len(runs) && runs[m].u>>chunkBits == k {
			m++
		}
		old := np.chunks[k]
		c := &np.chunks[k]
		for _, r := range runs[:m] {
			c.set |= uint64(1) << (r.u & chunkMask)
		}
		c.lists = make([][]DenseEdge, bits.OnesCount64(c.set))
		for s := old.set; s != 0; s &= s - 1 {
			b := s & -s
			c.lists[c.rank(b)] = old.lists[old.rank(b)]
		}
		for _, r := range runs[:m] {
			b := uint64(1) << (r.u & chunkMask)
			at := c.rank(b)
			if old.set&b != 0 {
				np.edges -= len(c.lists[at])
			}
			c.lists[at] = r.es
			np.edges += len(r.es)
		}
		runs = runs[m:]
	}
	return np
}

// adjacency is one direction of a graph's edges: a flat CSR — vertex i's
// list is dense[off[i]:off[i+1]] — and, on a spliced graph, a patch over it.
// Every vertex at or past len(off)-1, which a splice appended, reads from
// the patch.
type adjacency struct {
	off   []int32
	dense []DenseEdge
	patch *patch
}

// at returns vertex i's list.
func (a *adjacency) at(i int32) []DenseEdge {
	if a.patch != nil {
		if es, ok := a.patch.list(i); ok {
			return es
		}
	}
	return a.dense[a.off[i]:a.off[i+1]]
}

// foldDue reports whether the patch holds more than 1/foldFraction of the
// packed edges.
func (a *adjacency) foldDue() bool {
	return a.patch != nil && a.patch.edges*foldFraction > a.patch.packed
}

// flat returns the n vertices' lists as fresh flat arrays with no patch: a
// itself when it has none.
func (a *adjacency) flat(n int) adjacency {
	if a.patch == nil {
		return *a
	}
	off, dense := make([]int32, n+1), make([]DenseEdge, 0, a.patch.packed)
	for i := range int32(n) {
		dense = append(dense, a.at(i)...)
		off[i+1] = int32(len(dense))
	}
	return adjacency{off: off, dense: dense}
}
