package graph

import "slices"

// Frozen CSR form. A Graph lives in one of two phases:
//
//	build phase (mutable)  — AddVertex/AddEdge grow per-vertex adjacency
//	                         slices; not safe for concurrent use; In() builds
//	                         the reverse adjacency lazily on first call.
//	query phase (frozen)   — Freeze() flattens adjacency into CSR
//	                         offset+packed-edge arrays whose edges carry the
//	                         dense target index, interns vertex and edge
//	                         labels into an int table (the per-vertex label
//	                         strings are dropped: Label/LabelAt resolve
//	                         through the table, a thaw restores them). All
//	                         read methods — including In() — are then safe
//	                         for concurrent use, and the dense accessors
//	                         (OutAt, InAt, LabelIDAt, …) traverse without a
//	                         single hash lookup.
//
// The dense CSR is the one adjacency a frozen graph stores: 16 bytes per
// packed edge, the arrays the kernels read and the arrays flat.go ships. The
// sparse-ID []Edge arrays behind Out/In (32 bytes per edge, per direction)
// are a view for the boundary API: the first Out, In or thaw that needs one
// derives it from the dense array in a single pass under a sync.Once, so
// concurrent first use is safe and a graph only ever walked densely — a
// shipped fragment under a dense kernel — never pays for it. The reverse CSR
// of a directed graph is derived the same way, on the first InAt, In or
// InDegreeAt (sssp, cc, keyword, cf and tricount never read it), and so is
// the larger-ID neighbor view tricount reads (UpCSR).
//
// So is the ID index. A frozen graph stores its ids, vlab, outOff and
// outDense, the label table, and property headers only if some vertex has a
// property (Freeze drops an all-empty list). Freeze keeps the map the build
// phase grew; a graph that never had one — a cut (Subgraph), a decoded frame
// or snapshot (FromMapped, DecodeFlat) — builds it on the first by-ID lookup
// (Index, Has, Out, In, Label, Props, …), once, shared by frozen clones.
// Dense kernels never look a vertex up by ID, so a fragment that is only
// computed on never holds one; a thaw builds a map of its own.
//
// A frozen graph changes in one of two ways. Splice (splice.go) applies a
// Batch of appended vertices, edge insertions and deletions and returns a new
// frozen graph, built in one pass over the out CSR; the old arrays are never
// written, and dense indices stay. This is how a session moves its fragments
// and its global graph — the base graph a server serves — from batch to
// batch, so nothing in the engine meets a thawed graph. Mutating adjacency or
// the vertex set after Freeze (AddVertex, AddEdge, RemoveEdge) instead
// transparently thaws the graph back to the build phase, for generators,
// loaders and tests: dense vertex indices are stable across freeze/thaw, but
// the CSR arrays and the label table are dropped and OutAt/InAt become
// invalid until the next Freeze. The frozen arrays are never written through
// — they may alias a read-only file mapping or a received frame — so a thaw
// moves to heap memory first. Property mutation (SetProps, AddProp) does not
// thaw — properties are not part of the CSR form; on a graph without headers
// it allocates them.

// DenseEdge is the packed CSR edge of a frozen graph: the dense index of the
// target vertex, the interned edge label, and the weight. The sparse target
// ID is recovered with IDAt(e.To) — a slice read, not a hash lookup.
type DenseEdge struct {
	To    int32 // dense index of the target vertex
	Label int32 // interned edge label; resolve with LabelName
	W     float64
}

// Frozen reports whether the graph is in its immutable CSR form.
func (g *Graph) Frozen() bool { return g.frozen }

// Freeze converts the graph to its frozen CSR form and returns it (for
// chaining). It is idempotent. The per-vertex adjacency slices are released;
// Out/In keep working (they slice the lazily derived sparse views,
// contiguously and allocation-free after first use) and the dense accessors
// become available.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	nv := len(g.ids)
	ne := 0
	for _, es := range g.out {
		ne += len(es)
	}
	g.labelIDs = make(map[string]int32)
	g.labelNames = nil
	intern := func(s string) int32 {
		if id, ok := g.labelIDs[s]; ok {
			return id
		}
		id := int32(len(g.labelNames))
		g.labelNames = append(g.labelNames, s)
		g.labelIDs[s] = id
		return id
	}
	g.vlab = make([]int32, nv)
	for i, l := range g.labels {
		g.vlab[i] = intern(l)
	}
	g.outOff = make([]int32, nv+1)
	g.outDense = make([]DenseEdge, 0, ne)
	for i, es := range g.out {
		for _, e := range es {
			g.outDense = append(g.outDense, DenseEdge{To: g.index[e.To], Label: intern(e.Label), W: e.W})
		}
		g.outOff[i+1] = int32(len(g.outDense))
	}
	g.labels = nil // vlab + the label table say the same in 4 bytes a vertex, not 16
	if !slices.ContainsFunc(g.props, func(ps []string) bool { return len(ps) > 0 }) {
		g.props = nil
	}
	g.out = nil
	g.in = nil
	g.inBuilt = false
	g.lazy = &lazyViews{}
	g.frozen = true
	return g
}

// reverseCSR derives the reverse CSR from the out CSR by counting sort over
// targets, scanning sources in dense order — the exact per-target edge order
// the lazy buildIn produces, so frozen and unfrozen In() agree element for
// element.
func reverseCSR(outOff []int32, outDense []DenseEdge) *revCSR {
	nv := len(outOff) - 1
	inOff := make([]int32, nv+1)
	for _, e := range outDense {
		inOff[e.To+1]++
	}
	for i := 0; i < nv; i++ {
		inOff[i+1] += inOff[i]
	}
	inDense := make([]DenseEdge, len(outDense))
	next := make([]int32, nv)
	copy(next, inOff[:nv])
	for ui := 0; ui < nv; ui++ {
		for _, de := range outDense[outOff[ui]:outOff[ui+1]] {
			inDense[next[de.To]] = DenseEdge{To: int32(ui), Label: de.Label, W: de.W}
			next[de.To]++
		}
	}
	return &revCSR{inOff, inDense}
}

// upCSR derives UpCSR's lists from the out CSR alone, in three passes: count
// every non-loop edge at its smaller-ID end, fill, then drop repeats
// (parallel and reciprocal edges) with a stamp, compacting in place.
func upCSR(ids []ID, outOff []int32, outDense []DenseEdge) (off, adj []int32) {
	nv := len(outOff) - 1
	off = make([]int32, nv+1)
	for u := int32(0); u < int32(nv); u++ {
		for _, e := range outDense[outOff[u]:outOff[u+1]] {
			switch {
			case ids[u] < ids[e.To]:
				off[u+1]++
			case ids[e.To] < ids[u]:
				off[e.To+1]++
			}
		}
	}
	for i := 0; i < nv; i++ {
		off[i+1] += off[i]
	}
	adj = make([]int32, off[nv])
	next := make([]int32, nv)
	copy(next, off[:nv])
	for u := int32(0); u < int32(nv); u++ {
		for _, e := range outDense[outOff[u]:outOff[u+1]] {
			switch {
			case ids[u] < ids[e.To]:
				adj[next[u]] = e.To
				next[u]++
			case ids[e.To] < ids[u]:
				adj[next[e.To]] = u
				next[e.To]++
			}
		}
	}
	stamp := next // spent: stamp[x] == v+1 once x is kept for v
	clear(stamp)
	w := int32(0)
	for v := 0; v < nv; v++ {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for _, x := range adj[lo:hi] {
			if stamp[x] != int32(v)+1 {
				stamp[x] = int32(v) + 1
				adj[w] = x
				w++
			}
		}
	}
	off[nv] = w
	if int(w) < len(adj) {
		adj = slices.Clone(adj[:w]) // the view lives as long as the graph: no slack
	}
	return off, adj
}

// sparseEdges derives the sparse-ID view of a packed edge array — the
// inverse of what Freeze interns: Edge{To: ids[e.To], W, labels[e.Label]}.
// dense must have passed checkDense.
func sparseEdges(dense []DenseEdge, ids []ID, labels []string) []Edge {
	out := make([]Edge, len(dense))
	for k, e := range dense {
		out[k] = Edge{To: ids[e.To], W: e.W, Label: labels[e.Label]}
	}
	return out
}

// thaw returns the graph to the mutable build phase. The sparse views are
// never mutated in place, so the restored per-vertex slices alias them with
// full capacity — the first append to a vertex's adjacency reallocates. A
// graph with no ID index of its own builds one it owns: the one built on
// first lookup may be shared with frozen clones, and AddVertex writes.
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	if g.index == nil {
		g.index = indexOf(g.ids)
	}
	g.ownProps()
	g.out = perVertex(g.outOff, g.sparseOut())
	if g.directed {
		g.in = perVertex(g.reverse().off, g.sparseIn())
		g.inBuilt = true
	}
	g.labels = make([]string, len(g.vlab))
	for i, l := range g.vlab {
		g.labels[i] = g.labelNames[l]
	}
	g.outOff, g.outDense = nil, nil
	g.vlab, g.labelNames, g.labelIDs = nil, nil, nil
	g.lazy = nil
	g.frozen = false
}

// perVertex slices a flat edge array into per-vertex adjacency lists.
func perVertex(off []int32, es []Edge) [][]Edge {
	adj := make([][]Edge, len(off)-1)
	for i := range adj {
		if a, b := off[i], off[i+1]; a != b {
			adj[i] = es[a:b:b]
		}
	}
	return adj
}

// OutAt returns the packed out-edges of the vertex at dense index i. Frozen
// graphs only; the caller must not mutate the returned slice.
func (g *Graph) OutAt(i int32) []DenseEdge {
	return g.outDense[g.outOff[i]:g.outOff[i+1]]
}

// InAt returns the packed in-edges of the vertex at dense index i (for
// undirected graphs, its out-edges). Frozen graphs only; the caller must not
// mutate the returned slice.
func (g *Graph) InAt(i int32) []DenseEdge {
	if !g.directed {
		return g.OutAt(i)
	}
	r := g.lazy.rev.Load() // kernels call this per vertex: one load once derived
	if r == nil {
		r = g.reverse()
	}
	return r.dense[r.off[i]:r.off[i+1]]
}

// OutCSR returns the whole out-adjacency — OutAt(i) is dense[off[i]:off[i+1]].
// Frozen graphs only.
func (g *Graph) OutCSR() (off []int32, dense []DenseEdge) { return g.outOff, g.outDense }

// InCSR returns the whole in-adjacency — InAt(i) is dense[off[i]:off[i+1]] —
// for kernels that read it per vertex (InAt is not inlined). Frozen graphs only.
func (g *Graph) InCSR() (off []int32, dense []DenseEdge) {
	if !g.directed {
		return g.outOff, g.outDense
	}
	r := g.reverse()
	return r.off, r.dense
}

// UpCSR returns, for each vertex, its undirected neighbors with a larger ID
// — adj[off[i]:off[i+1]] for the vertex at dense index i, as dense indices,
// each once: self-loops are dropped and parallel and reciprocal edges
// collapse. It is derived from the out CSR on first call and shared by frozen
// clones; the reverse CSR is not needed. Frozen graphs only; the caller must
// not mutate the returned slices.
func (g *Graph) UpCSR() (off, adj []int32) {
	s := g.lazy
	s.upOnce.Do(func() { s.upOff, s.upAdj = upCSR(g.ids, g.outOff, g.outDense) })
	return s.upOff, s.upAdj
}

// OutDegreeAt returns the out-degree of the vertex at dense index i. Frozen
// graphs only.
func (g *Graph) OutDegreeAt(i int32) int {
	return int(g.outOff[i+1] - g.outOff[i])
}

// InDegreeAt returns the in-degree of the vertex at dense index i. Frozen
// graphs only.
func (g *Graph) InDegreeAt(i int32) int {
	if !g.directed {
		return g.OutDegreeAt(i)
	}
	r := g.lazy.rev.Load()
	if r == nil {
		r = g.reverse()
	}
	return int(r.off[i+1] - r.off[i])
}

// LabelIDAt returns the interned label of the vertex at dense index i.
// Frozen graphs only.
func (g *Graph) LabelIDAt(i int32) int32 { return g.vlab[i] }

// LabelAt returns the label string of the vertex at dense index i.
func (g *Graph) LabelAt(i int32) string {
	if g.frozen {
		return g.labelNames[g.vlab[i]]
	}
	return g.labels[i]
}

// PropsAt returns the property list of the vertex at dense index i. The
// caller must not mutate the returned slice.
func (g *Graph) PropsAt(i int32) []string {
	if g.props == nil {
		return nil
	}
	return g.props[i]
}

// LabelID returns the interned ID of a vertex or edge label and whether the
// label occurs in the graph at all. Frozen graphs only. Pattern-matching
// kernels resolve pattern label strings once and compare int32s per edge.
func (g *Graph) LabelID(s string) (int32, bool) {
	id, ok := g.labelIDs[s]
	return id, ok
}

// LabelName returns the label string interned as lid. Frozen graphs only.
func (g *Graph) LabelName(lid int32) string { return g.labelNames[lid] }

// NumLabels returns the number of distinct interned labels (vertex and edge
// labels share one table). Frozen graphs only.
func (g *Graph) NumLabels() int { return len(g.labelNames) }
