package graph

import "sort"

// SubgraphBuilder assembles a frozen subgraph of a frozen source graph
// without touching the mutable build API: vertices and edges are identified
// by the source graph's dense indices and interned labels, remapped through
// flat arrays, so copying a fragment costs one hash per vertex (the new
// graph's own ID index) and zero per edge. partition.Build and
// InducedSubgraph use it to cut fragments straight into CSR form.
//
// Usage: add vertices (idempotent, in the order their dense indices should
// come out), then stream edges in any order; Finish counting-sorts the
// stream by source — stably, so each vertex keeps its edges in insertion
// order, exactly as the mutable API would have.
type SubgraphBuilder struct {
	src   *Graph
	ids   []ID
	props [][]string
	vlab  []int32 // new dense index -> source label ID
	index map[ID]int32
	local []int32 // source dense index -> new dense index, -1 if absent

	esrc, eto []int32 // edge stream endpoints, new dense indices
	elab      []int32 // edge stream labels, source label IDs
	ew        []float64
	numEdges  int
}

// NewSubgraphBuilder returns a builder for a subgraph of src, which must be
// frozen. sizeHint sizes the vertex index.
func NewSubgraphBuilder(src *Graph, sizeHint int) *SubgraphBuilder {
	local := make([]int32, src.NumVertices())
	for i := range local {
		local[i] = -1
	}
	return &SubgraphBuilder{src: src, index: make(map[ID]int32, sizeHint), local: local}
}

// Has reports whether the vertex at source dense index i has been added.
func (b *SubgraphBuilder) Has(i int32) bool { return b.local[i] >= 0 }

// Local returns the subgraph dense index of the vertex at source dense index
// i, or -1 if it has not been added.
func (b *SubgraphBuilder) Local(i int32) int32 { return b.local[i] }

// AddVertex copies the vertex at source dense index i — ID, label and a
// fresh copy of its properties — and returns its dense index in the
// subgraph. It is idempotent.
func (b *SubgraphBuilder) AddVertex(i int32) int32 {
	if li := b.local[i]; li >= 0 {
		return li
	}
	li := int32(len(b.ids))
	b.local[i] = li
	id := b.src.ids[i]
	b.ids = append(b.ids, id)
	var props []string
	if ps := b.src.props[i]; len(ps) > 0 {
		props = append([]string(nil), ps...)
	}
	b.props = append(b.props, props)
	b.vlab = append(b.vlab, b.src.vlab[i])
	b.index[id] = li
	return li
}

// AddEdge records a copy of the source's packed edge e leaving the vertex at
// source dense index from. Both endpoints must have been added. One call per
// logical edge: for an undirected source the mirror direction is stored
// automatically, as the mutable AddEdge does.
func (b *SubgraphBuilder) AddEdge(from int32, e DenseEdge) {
	u, v := b.local[from], b.local[e.To]
	b.esrc = append(b.esrc, u)
	b.eto = append(b.eto, v)
	b.elab = append(b.elab, e.Label)
	b.ew = append(b.ew, e.W)
	if !b.src.directed {
		b.esrc = append(b.esrc, v)
		b.eto = append(b.eto, u)
		b.elab = append(b.elab, e.Label)
		b.ew = append(b.ew, e.W)
	}
	b.numEdges++
}

// Finish assembles and returns the frozen subgraph. The builder must not be
// reused afterwards.
func (b *SubgraphBuilder) Finish() *Graph {
	g := &Graph{
		directed: b.src.directed,
		ids:      b.ids,
		index:    b.index,
		props:    b.props,
		numEdges: b.numEdges,
		frozen:   true,
		sparse:   &sparseViews{},
	}
	nv := len(b.ids)
	lmap := make([]int32, b.src.NumLabels())
	for i := range lmap {
		lmap[i] = -1
	}
	intern := func(sid int32) int32 {
		if nid := lmap[sid]; nid >= 0 {
			return nid
		}
		nid := int32(len(g.labelNames))
		g.labelNames = append(g.labelNames, b.src.labelNames[sid])
		lmap[sid] = nid
		return nid
	}
	g.vlab = make([]int32, nv)
	for i, sid := range b.vlab {
		g.vlab[i] = intern(sid)
	}
	// Stable counting sort of the edge stream by source.
	g.outOff = make([]int32, nv+1)
	for _, s := range b.esrc {
		g.outOff[s+1]++
	}
	for i := 0; i < nv; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	ne := len(b.esrc)
	g.outDense = make([]DenseEdge, ne)
	next := make([]int32, nv)
	copy(next, g.outOff[:nv])
	for k := 0; k < ne; k++ {
		s := b.esrc[k]
		pos := next[s]
		next[s]++
		g.outDense[pos] = DenseEdge{To: b.eto[k], Label: intern(b.elab[k]), W: b.ew[k]}
	}
	g.labelIDs = make(map[string]int32, len(g.labelNames))
	for i, s := range g.labelNames {
		g.labelIDs[s] = int32(i)
	}
	g.buildReverseCSR()
	return g
}

// SortedIndices returns the graph's dense vertex indices ordered by
// ascending vertex ID — the dense counterpart of SortedVertices (a fresh
// slice).
func (g *Graph) SortedIndices() []int32 {
	out := make([]int32, len(g.ids))
	for i := range out {
		out[i] = int32(i)
	}
	sort.Slice(out, func(a, b int) bool { return g.ids[out[a]] < g.ids[out[b]] })
	return out
}
