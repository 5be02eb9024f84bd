package graph

import (
	"cmp"
	"slices"
)

// SubgraphBuilder cuts subgraphs out of one source graph, CSR to CSR:
// vertices and edges are named by the source's dense indices and remapped
// through flat arrays, so a cut hashes nothing per vertex or per edge (the
// subgraph builds its ID index on its first by-ID lookup, if any), and every
// array of the result is allocated once, at its final size — a property
// column only if some vertex brings properties. The source is read list by
// list, so a spliced one is cut as it stands, its patch unfolded. The
// remapping scratch is sized to the source once and shared by every subgraph
// cut from it. partition.Build, partition.BuildExpanded and the block-centric baseline
// cut through it.
type SubgraphBuilder struct {
	src   *Graph
	local []int32 // source dense index -> dense index in the latest subgraph, -1 if absent
	verts []int32 // the latest subgraph's vertices, as source dense indices
	next  []int32 // per subgraph vertex: out-degree after the first walk, write cursor in the second
	lmap  []int32 // source label ID -> subgraph label ID, -1 outside Subgraph
	kept  []int32 // the edges keep accepted in the first walk, by ordinal among the edges it walked
}

// NewSubgraphBuilder returns a builder for subgraphs of src.
func NewSubgraphBuilder(src *Graph) *SubgraphBuilder {
	nv := len(src.ids)
	b := &SubgraphBuilder{src: src, local: make([]int32, nv), verts: make([]int32, 0, nv), next: make([]int32, nv), lmap: make([]int32, len(src.labelNames))}
	for i := range b.local {
		b.local[i] = -1
	}
	for i := range b.lmap {
		b.lmap[i] = -1
	}
	return b
}

// Local returns the dense index, in the latest subgraph, of the vertex at
// source dense index i, or -1 if it is not part of it.
func (b *SubgraphBuilder) Local(i int32) int32 { return b.local[i] }

// Vertices returns the latest subgraph's vertices as source dense indices, in
// its dense order. The slice is reused by the next Subgraph call.
func (b *SubgraphBuilder) Vertices() []int32 { return b.verts }

// Subgraph cuts one subgraph. The seeds (source dense indices, distinct)
// become its first vertices, in the order given, and bring every out-edge
// keep accepts (nil accepts all). keep is asked once per edge, seeds in
// order and each seed's edges in the source's order, so it may keep state
// from one seed to the next. A target that is not a seed joins after the
// seeds, in order of first appearance, with its label and properties and no
// out-edges of its own. The subgraph's property column holds the string
// headers of its own vertices' properties only (the strings' bytes are
// shared with the source). For an undirected source the mirror direction is
// stored automatically, as Builder.AddEdge does.
//
// The first walk over the edges, in that order, asks keep, counts per vertex
// and lists the kept edges; the second places each at its vertex's cursor,
// in the same order, and labels are then interned in CSR order — byte for
// byte the graph a Builder would have produced.
func (b *SubgraphBuilder) Subgraph(seeds []int32, keep func(from int32, e DenseEdge) bool) *Graph {
	src, local, next := b.src, b.local, b.next
	for li, i := range b.verts {
		local[i], next[li] = -1, 0
	}
	b.verts = append(b.verts[:0], seeds...)
	for li, i := range seeds {
		local[i] = int32(li)
	}
	if keep != nil && b.kept == nil {
		b.kept = make([]int32, 0, src.packed()) // distinct seeds walk each edge at most once
	}
	ne := 0
	b.kept = b.kept[:0]
	walked := int32(0) // the edges of the seeds before this one
	for u, i := range seeds {
		es := src.OutAt(i)
		for j, e := range es {
			if keep != nil {
				if !keep(i, e) {
					continue
				}
				b.kept = append(b.kept, walked+int32(j))
			}
			v := local[e.To]
			if v < 0 {
				v = int32(len(b.verts))
				local[e.To] = v
				b.verts = append(b.verts, e.To)
			}
			next[u]++
			if !src.directed {
				next[v]++
			}
			ne++
		}
		walked += int32(len(es))
	}
	nv := len(b.verts)
	g := &Graph{
		directed: src.directed,
		ids:      make([]ID, nv),
		vlab:     make([]int32, nv),
		outOff:   make([]int32, nv+1),
		numEdges: ne,
		lazy:     &lazyViews{},
	}
	intern := func(sid int32) int32 {
		if b.lmap[sid] < 0 {
			b.lmap[sid] = int32(len(g.labelNames))
			g.labelNames = append(g.labelNames, src.labelNames[sid])
		}
		return b.lmap[sid]
	}
	for li, i := range b.verts {
		g.ids[li] = src.ids[i]
		g.vlab[li] = intern(src.vlab[i])
		g.outOff[li+1] = g.outOff[li] + next[li]
		next[li] = g.outOff[li]
	}
	if src.propOff != nil {
		g.propOff, g.propVals = propColumn(nv, func(li int) []string { return src.PropsAt(b.verts[li]) })
	}
	out := make([]DenseEdge, g.outOff[nv])
	place := func(u int32, e DenseEdge) {
		v := local[e.To]
		out[next[u]] = DenseEdge{To: v, Label: e.Label, W: e.W}
		next[u]++
		if !src.directed {
			out[next[v]] = DenseEdge{To: u, Label: e.Label, W: e.W}
			next[v]++
		}
	}
	if keep == nil {
		for u, i := range seeds {
			for _, e := range src.OutAt(i) {
				place(int32(u), e)
			}
		}
	} else {
		kept, walked := b.kept, int32(0)
		for u, i := range seeds { // a seed's kept edges are the next ones below the ordinal its list ends at
			es := src.OutAt(i)
			for ; len(kept) > 0 && kept[0] < walked+int32(len(es)); kept = kept[1:] {
				place(int32(u), es[kept[0]-walked])
			}
			walked += int32(len(es))
		}
	}
	for k := range out {
		out[k].Label = intern(out[k].Label)
	}
	g.outDense = out
	g.labelIDs = make(map[string]int32, len(g.labelNames))
	for i, s := range g.labelNames {
		g.labelIDs[s] = int32(i)
		b.lmap[src.labelIDs[s]] = -1
	}
	return g
}

// SortedIndices returns the graph's dense vertex indices ordered by ascending
// vertex ID — the dense counterpart of SortedVertices. The graph works the
// order out once and shares it with its clones; the caller must not mutate
// the returned slice.
func (g *Graph) SortedIndices() []int32 {
	s := g.lazy
	s.orderOnce.Do(func() { s.order = sortedIndices(g.ids) })
	return s.order
}

// sortedIndices sorts only when ids do not already ascend.
func sortedIndices(ids []ID) []int32 {
	out := make([]int32, len(ids))
	ascending := true
	for i := range out {
		out[i] = int32(i)
		ascending = ascending && (i == 0 || ids[i-1] < ids[i])
	}
	if !ascending {
		slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	}
	return out
}
