package graph

import "slices"

// The CSR form, a Graph's one representation: per vertex, a run of packed
// out-edges carrying the dense target index (outOff plus outDense, and on a
// spliced graph the patch of patch.go over them), and vertex and edge labels
// interned into one table (vlab, labelNames). The dense accessors (OutAt,
// InAt, LabelIDAt, …) traverse without a single hash lookup, and every read
// method is safe for concurrent use.
//
// The dense CSR is the one adjacency a graph stores: 16 bytes per packed
// edge, the arrays the kernels read and the arrays flat.go ships. Out and In
// resolve a vertex's packed edges to sparse-ID Edges on each call, for
// programs, examples and tests; nothing keeps an ID-keyed copy of the
// adjacency. The reverse CSR of a directed graph is derived from the
// out-lists on the first InAt, In or InDegreeAt, once, under a sync.Once, so
// concurrent first use is safe and a program that reads no in-edges never
// pays for it (a splice hands a derived one on, patched), and so is the
// larger-ID neighbor view tricount reads (UpCSR).
//
// So is the ID index. A graph stores its ids, vlab, out CSR (and patch), the
// label table, and a property column only if some vertex has a property.
// Builder.Graph keeps the map the builder grew and Splice keeps or builds
// one; a graph that never had one — a cut (Subgraph), a decoded frame or
// snapshot (DecodeFlat) — builds it on the first by-ID lookup
// (Index, Has, Out, In, Label, Props, …), once, shared by clones. Dense
// kernels never look a vertex up by ID, so a fragment that is only computed
// on never holds one.
//
// The arrays are never written through — they may alias a read-only file
// mapping or a received frame, and clones and splices share them. A graph
// changes only by Splice (splice.go), which patches the lists a Batch
// touches over the old arrays, and by MapProps (SetProps, AddProp), which
// builds a new property column from the old one.

// DenseEdge is the packed CSR edge of a graph: the dense index of the
// target vertex, the interned edge label, and the weight. The sparse target
// ID is recovered with IDAt(e.To) — a slice read, not a hash lookup.
type DenseEdge struct {
	To    int32 // dense index of the target vertex
	Label int32 // interned edge label; resolve with LabelName
	W     float64
}

// Freeze returns g. Every graph is in CSR form; Freeze stays for callers
// written when graphs had a mutable build phase.
func (g *Graph) Freeze() *Graph { return g }

// reverseCSR derives g's reverse CSR from its out-lists by counting sort over
// targets, scanning sources in dense order, so each vertex's in-edges come in
// the order of their sources.
func reverseCSR(g *Graph) *adjacency {
	nv := int32(len(g.ids))
	inOff := make([]int32, nv+1)
	for u := range nv {
		for _, e := range g.OutAt(u) {
			inOff[e.To+1]++
		}
	}
	for i := range nv {
		inOff[i+1] += inOff[i]
	}
	inDense := make([]DenseEdge, inOff[nv])
	next := make([]int32, nv)
	copy(next, inOff[:nv])
	for u := range nv {
		for _, de := range g.OutAt(u) {
			inDense[next[de.To]] = DenseEdge{To: u, Label: de.Label, W: de.W}
			next[de.To]++
		}
	}
	return &adjacency{off: inOff, dense: inDense}
}

// upCSR derives UpCSR's lists from g's out-lists alone, in three passes:
// count every non-loop edge at its smaller-ID end, fill, then drop repeats
// (parallel and reciprocal edges) with a stamp, compacting in place.
func upCSR(g *Graph) (off, adj []int32) {
	ids, nv := g.ids, len(g.ids)
	off = make([]int32, nv+1)
	for u := int32(0); u < int32(nv); u++ {
		for _, e := range g.OutAt(u) {
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
		for _, e := range g.OutAt(u) {
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

// OutAt returns the packed out-edges of the vertex at dense index i. The
// caller must not mutate the returned slice.
func (g *Graph) OutAt(i int32) []DenseEdge {
	if g.outPatch != nil {
		return g.patchedOut(i)
	}
	return g.outDense[g.outOff[i]:g.outOff[i+1]]
}

// InAt returns the packed in-edges of the vertex at dense index i (for
// undirected graphs, its out-edges). The caller must not mutate the returned
// slice.
func (g *Graph) InAt(i int32) []DenseEdge {
	if !g.directed {
		return g.OutAt(i)
	}
	r := g.lazy.rev.Load() // kernels call this per vertex: one load once derived
	if r == nil {
		r = g.reverse()
	}
	return r.at(i)
}

// OutCSR returns the whole out-adjacency — OutAt(i) is dense[off[i]:off[i+1]].
// A spliced graph folds its patch into flat arrays on the first call, once,
// and shares them with its clones.
func (g *Graph) OutCSR() (off []int32, dense []DenseEdge) {
	if g.outPatch == nil {
		return g.outOff, g.outDense
	}
	s := g.lazy
	s.outFlatOnce.Do(func() { a := g.outs(); s.outFlat = a.flat(len(g.ids)) })
	return s.outFlat.off, s.outFlat.dense
}

// InCSR returns the whole in-adjacency — InAt(i) is dense[off[i]:off[i+1]] —
// for kernels that read it per vertex (InAt is not inlined). A patched
// reverse CSR is folded as OutCSR folds.
func (g *Graph) InCSR() (off []int32, dense []DenseEdge) {
	if !g.directed {
		return g.OutCSR()
	}
	r := g.reverse()
	if r.patch == nil {
		return r.off, r.dense
	}
	s := g.lazy
	s.inFlatOnce.Do(func() { s.inFlat = r.flat(len(g.ids)) })
	return s.inFlat.off, s.inFlat.dense
}

// UpCSR returns, for each vertex, its undirected neighbors with a larger ID
// — adj[off[i]:off[i+1]] for the vertex at dense index i, as dense indices,
// each once: self-loops are dropped and parallel and reciprocal edges
// collapse. It is derived from the out-lists on first call and shared by
// clones; the reverse CSR is not needed. The caller must not mutate the
// returned slices.
func (g *Graph) UpCSR() (off, adj []int32) {
	s := g.lazy
	s.upOnce.Do(func() { s.upOff, s.upAdj = upCSR(g) })
	return s.upOff, s.upAdj
}

// OutDegreeAt returns the out-degree of the vertex at dense index i.
func (g *Graph) OutDegreeAt(i int32) int {
	if g.outPatch != nil {
		return len(g.patchedOut(i))
	}
	return int(g.outOff[i+1] - g.outOff[i])
}

// patchedOut is OutAt on a spliced graph. It stays a call, so that OutAt and
// OutDegreeAt, which branch to it, stay small enough to inline.
//
//go:noinline
func (g *Graph) patchedOut(i int32) []DenseEdge {
	if es, ok := g.outPatch.list(i); ok {
		return es
	}
	return g.outDense[g.outOff[i]:g.outOff[i+1]]
}

// InDegreeAt returns the in-degree of the vertex at dense index i.
func (g *Graph) InDegreeAt(i int32) int {
	if !g.directed {
		return g.OutDegreeAt(i)
	}
	r := g.lazy.rev.Load()
	if r == nil {
		r = g.reverse()
	}
	return len(r.at(i))
}

// LabelIDAt returns the interned label of the vertex at dense index i.
func (g *Graph) LabelIDAt(i int32) int32 { return g.vlab[i] }

// LabelAt returns the label string of the vertex at dense index i.
func (g *Graph) LabelAt(i int32) string { return g.labelNames[g.vlab[i]] }

// PropsAt returns the property list of the vertex at dense index i, nil when
// it has none: a capped window on the property column, so it allocates
// nothing. The caller must not mutate the returned slice.
func (g *Graph) PropsAt(i int32) []string {
	if g.propOff == nil {
		return nil
	}
	a, b := g.propOff[i], g.propOff[i+1]
	if a == b {
		return nil
	}
	return g.propVals[a:b:b]
}

// LabelID returns the interned ID of a vertex or edge label and whether the
// label occurs in the graph at all. Pattern-matching
// kernels resolve pattern label strings once and compare int32s per edge.
func (g *Graph) LabelID(s string) (int32, bool) {
	id, ok := g.labelIDs[s]
	return id, ok
}

// LabelName returns the label string interned as lid.
func (g *Graph) LabelName(lid int32) string { return g.labelNames[lid] }

// NumLabels returns the number of distinct interned labels (vertex and edge
// labels share one table).
func (g *Graph) NumLabels() int { return len(g.labelNames) }
