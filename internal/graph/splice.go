package graph

import (
	"fmt"
	"maps"
	"slices"
)

// Batch is one round of changes for Splice: vertices to append, and edge
// insertions and deletions in the order they were recorded. The zero value is
// an empty batch.
type Batch struct {
	verts []batchVertex
	edges []batchEdge
	dels  int
}

type batchVertex struct {
	id    ID
	label string
	props []string
}

type batchEdge struct {
	from, to ID
	w        float64
	label    string
	del      int // the deletion's ordinal in the batch; -1 for an insertion
}

// AddVertex appends vertex id with a label and properties (nil for none).
func (b *Batch) AddVertex(id ID, label string, props []string) {
	b.verts = append(b.verts, batchVertex{id, label, props})
}

// AddEdge inserts an edge u→v at the end of u's out-edges.
func (b *Batch) AddEdge(u, v ID, w float64, label string) {
	b.edges = append(b.edges, batchEdge{u, v, w, label, -1})
}

// RemoveEdge deletes one u→v edge with the given label: the first in u's
// out-edges as they stand at this point of the batch, as Graph.RemoveEdge
// would.
func (b *Batch) RemoveEdge(u, v ID, label string) {
	b.edges = append(b.edges, batchEdge{u, v, 0, label, b.dels})
	b.dels++
}

// Splice applies b to the frozen directed graph g and returns the result,
// frozen, together with the weight each RemoveEdge of b removed, in batch
// order. The result is the graph a thaw, the same AddVertex, SetProps,
// AddLabeledEdge and RemoveEdge calls and a Freeze would produce, edge for
// edge, but it is built in one pass over g's out CSR into exact-size arrays:
// existing dense indices stay, new vertices follow in the order added, and
// labels g has not seen join the end of the intern table.
//
// Splice never writes an element of g's arrays. The result shares those it
// leaves unchanged, and grows the vertex arrays by appending to g's, past
// their length — in place when they have room, as a growing slice does (an
// array aliasing a frame or a mapping never has). It also takes over g's ID
// index, if g has one of its own, adding the new vertices to it. So once a
// batch that appends vertices has been spliced, g must not be used. A batch
// that appends none writes nothing g can see: g stays valid beside the
// result, which is how a session hands a patcher the graphs before and after
// a batch. A batch naming a vertex that is neither in g nor added, adding one
// twice, or deleting an edge that does not exist at its point of the batch is
// refused, and g is left as it was.
func Splice(g *Graph, b *Batch) (*Graph, []float64, error) {
	if !g.frozen || !g.directed {
		return nil, nil, fmt.Errorf("graph: Splice needs a frozen directed graph")
	}
	nv, nn := int32(len(g.ids)), int32(len(g.ids)+len(b.verts))
	ng := &Graph{
		directed:   true,
		ids:        g.ids,
		index:      g.index,
		vlab:       g.vlab,
		props:      g.props,
		numEdges:   g.numEdges + len(b.edges) - 2*b.dels,
		frozen:     true,
		outOff:     make([]int32, nn+1),
		labelNames: g.labelNames,
		labelIDs:   g.labelIDs,
		lazy:       &lazyViews{},
	}
	if ng.index == nil {
		ng.index = indexOf(g.ids)
	}
	ownLabels := false
	intern := func(s string) int32 {
		if l, ok := ng.labelIDs[s]; ok {
			return l
		}
		if !ownLabels { // a label g has not seen: the table becomes a copy
			ng.labelNames, ng.labelIDs, ownLabels = slices.Clip(ng.labelNames), maps.Clone(ng.labelIDs), true
		}
		l := int32(len(ng.labelNames))
		ng.labelNames, ng.labelIDs[s] = append(ng.labelNames, s), l
		return l
	}

	added := make(map[ID]int32, len(b.verts))
	if g.props == nil && slices.ContainsFunc(b.verts, func(v batchVertex) bool { return len(v.props) > 0 }) {
		ng.props = make([][]string, nv, nn)
	}
	for k, v := range b.verts {
		if _, ok := ng.index[v.id]; ok {
			return nil, nil, fmt.Errorf("graph: Splice adds vertex %d, which is present", v.id)
		}
		if _, ok := added[v.id]; ok {
			return nil, nil, fmt.Errorf("graph: Splice adds vertex %d twice", v.id)
		}
		added[v.id] = nv + int32(k)
		ng.ids, ng.vlab = append(ng.ids, v.id), append(ng.vlab, intern(v.label))
		if ng.props != nil {
			ng.props = append(ng.props, slices.Clip(v.props))
		}
	}
	at := func(id ID) (int32, error) {
		if i, ok := ng.index[id]; ok {
			return i, nil
		}
		if i, ok := added[id]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("graph: Splice names vertex %d, which is absent", id)
	}

	// Each source's edge operations, in batch order, replay on a copy of its
	// out-edges; touched lists the sources in ascending dense order, each
	// with its final out-edges.
	type op struct {
		from, to int32
		e        batchEdge
	}
	ops := make([]op, len(b.edges))
	for k, e := range b.edges {
		u, err := at(e.from)
		if err != nil {
			return nil, nil, err
		}
		v, err := at(e.to)
		if err != nil {
			return nil, nil, err
		}
		ops[k] = op{u, v, e}
	}
	slices.SortStableFunc(ops, func(x, y op) int { return int(x.from - y.from) })
	oldOff := func(i int32) int32 { return g.outOff[min(i, nv)] } // a new vertex has no old edges
	type run struct {
		u  int32
		es []DenseEdge
	}
	var touched []run
	removed := make([]float64, b.dels)
	for _, o := range ops {
		if len(touched) == 0 || touched[len(touched)-1].u != o.from {
			touched = append(touched, run{o.from, slices.Clone(g.outDense[oldOff(o.from):oldOff(o.from+1)])})
		}
		r := &touched[len(touched)-1]
		if o.e.del < 0 {
			r.es = append(r.es, DenseEdge{To: o.to, Label: intern(o.e.label), W: o.e.w})
			continue
		}
		l, ok := ng.labelIDs[o.e.label]
		k := slices.IndexFunc(r.es, func(e DenseEdge) bool { return ok && e.To == o.to && e.Label == l })
		if k < 0 {
			return nil, nil, fmt.Errorf("graph: Splice deletes edge %d->%d label %q, which is absent", o.e.from, o.e.to, o.e.label)
		}
		removed[o.e.del] = r.es[k].W
		r.es = slices.Delete(r.es, k, k+1)
	}

	// The one pass: an untouched vertex copies its run of g's CSR, its offset
	// shifted by what the touched vertices before it gained or lost.
	ng.outDense = make([]DenseEdge, 0, ng.numEdges)
	from, shift := int32(0), int32(0)
	copyRun := func(to int32) {
		ng.outDense = append(ng.outDense, g.outDense[oldOff(from):oldOff(to)]...)
		for i := from; i < to; i++ {
			ng.outOff[i+1] = oldOff(i+1) + shift
		}
	}
	for _, r := range touched {
		copyRun(r.u)
		ng.outDense = append(ng.outDense, r.es...)
		ng.outOff[r.u+1] = int32(len(ng.outDense))
		from, shift = r.u+1, ng.outOff[r.u+1]-oldOff(r.u+1)
	}
	copyRun(nn)
	for id, i := range added {
		ng.index[id] = i
	}
	return ng, removed, nil
}
