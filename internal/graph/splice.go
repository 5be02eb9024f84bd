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

// AddVertex appends vertex id with a label and properties (nil for none),
// which Splice copies into the result's property column.
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

// Splice applies b to g and returns the result together with the weight each
// RemoveEdge of b removed, in batch order. The result is the graph a Builder
// would produce from g's vertices and edges with b's changes made to its
// edge lists, edge for edge: existing dense indices stay, new vertices follow
// in the order added, and labels g has not seen join the end of the intern
// table. On an undirected graph an insertion also appends the mirror edge at
// its target, and a deletion also removes the first mirror instance with the
// removed weight; a self-loop is stored, and removed, twice.
//
// A splice costs what the batch touched, not |G|. The result keeps g's flat
// CSR and carries a copy-on-write patch (patch.go): g's patch, if any, with
// the new full list of every vertex the batch changed or appended in place of
// the old. It copies the patch's chunk table and the chunks the batch lands
// in, never a whole-graph array. A directed g whose reverse CSR is derived
// hands it on the same way: its arrays, and a patch of the in-lists of the
// batch's targets, so the result's first InAt derives nothing. Once the
// patched lists hold more than 1/16 of the packed edges (foldFraction), the
// splice folds instead: fresh flat arrays, out and (when derived) in, and no
// patch. Lists in a patch are in every respect those of the flat form.
//
// Splice never writes an element of g's arrays or patch. The result shares
// those it leaves unchanged, and grows the vertex arrays (the property
// column's included) by appending to g's, past their length — in place when
// they have room, as a growing slice does (an array aliasing a frame or a
// mapping never has). It also takes over g's ID index, if g has one of its
// own, adding the new vertices to it. So once a batch that appends vertices
// has been spliced, g must not be used. A batch that appends none writes
// nothing g can see: g stays valid beside the result, which is how a session
// hands a patcher the graphs before and after a batch. A batch naming a
// vertex that is neither in g nor added, adding one twice, or deleting an
// edge that does not exist at its point of the batch is refused, and g is
// left as it was.
func Splice(g *Graph, b *Batch) (*Graph, []float64, error) {
	nv, nn := int32(len(g.ids)), int32(len(g.ids)+len(b.verts))
	ng := &Graph{
		directed:   g.directed,
		ids:        g.ids,
		index:      g.index,
		vlab:       g.vlab,
		propOff:    g.propOff,
		propVals:   g.propVals,
		numEdges:   g.numEdges + len(b.edges) - 2*b.dels,
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
	if g.propOff == nil && slices.ContainsFunc(b.verts, func(v batchVertex) bool { return len(v.props) > 0 }) {
		ng.propOff = make([]int32, nv+1, nn+1)
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
		if ng.propOff != nil {
			ng.propVals = append(ng.propVals, v.props...)
			ng.propOff = append(ng.propOff, int32(len(ng.propVals)))
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

	// The edge operations replay in batch order, each on a copy of its
	// vertex's out-edges taken, with room for what the batch inserts there,
	// when the batch first touches it; touched then lists the vertices in
	// ascending dense order, each with its final out-edges. Every appended
	// vertex is touched, so the patch holds its list however short.
	ends := make([][2]int32, len(b.edges)) // dense (source, target) of each batch edge
	gain := make(map[int32]int)
	for k, e := range b.edges {
		u, err := at(e.from)
		if err != nil {
			return nil, nil, err
		}
		v, err := at(e.to)
		if err != nil {
			return nil, nil, err
		}
		ends[k] = [2]int32{u, v}
		if e.del < 0 {
			gain[u]++
			if !g.directed {
				gain[v]++
			}
		}
	}
	var touched []run
	slot := make(map[int32]int)
	edges := func(u int32) *[]DenseEdge {
		k, ok := slot[u]
		if !ok {
			k = len(touched)
			slot[u] = k
			var old []DenseEdge
			if u < nv {
				old = g.OutAt(u)
			}
			touched = append(touched, run{u, append(make([]DenseEdge, 0, len(old)+gain[u]), old...)})
		}
		return &touched[k].es
	}
	for u := nv; u < nn; u++ {
		edges(u)
	}
	del := func(es *[]DenseEdge, match func(DenseEdge) bool) (float64, bool) {
		k := slices.IndexFunc(*es, match)
		if k < 0 {
			return 0, false
		}
		w := (*es)[k].W
		*es = slices.Delete(*es, k, k+1)
		return w, true
	}
	removed := make([]float64, b.dels)
	for k, e := range b.edges {
		u, v := ends[k][0], ends[k][1]
		if e.del < 0 {
			l := intern(e.label)
			es := edges(u)
			*es = append(*es, DenseEdge{To: v, Label: l, W: e.w})
			if !g.directed {
				es = edges(v)
				*es = append(*es, DenseEdge{To: u, Label: l, W: e.w})
			}
			continue
		}
		l, known := ng.labelIDs[e.label]
		w, ok := del(edges(u), func(x DenseEdge) bool { return known && x.To == v && x.Label == l })
		if !ok {
			return nil, nil, fmt.Errorf("graph: Splice deletes edge %d->%d label %q, which is absent", e.from, e.to, e.label)
		}
		removed[e.del] = w
		if !g.directed {
			if _, ok := del(edges(v), func(x DenseEdge) bool { return x.To == u && x.Label == l && x.W == w }); !ok {
				return nil, nil, fmt.Errorf("graph: Splice deletes edge %d->%d label %q, whose mirror is absent", e.from, e.to, e.label)
			}
		}
	}
	for id, i := range added {
		ng.index[id] = i
	}

	stored := 1 // packed edges per edge
	if !g.directed {
		stored = 2
	}
	packed := g.packed() + stored*(len(b.edges)-2*b.dels)
	var rev *adjacency
	if r := g.lazy.rev.Load(); r != nil { // only a directed graph derives one
		runs := inRuns(r, nv, nn, ends, func(u int32) []DenseEdge { return touched[slot[u]].es })
		rev = &adjacency{off: r.off, dense: r.dense, patch: r.patch.with(nn, runs, packed)}
	}
	slices.SortFunc(touched, func(x, y run) int { return int(x.u - y.u) })
	out := adjacency{off: g.outOff, dense: g.outDense, patch: g.outPatch.with(nn, touched, packed)}
	if out.foldDue() || rev != nil && rev.foldDue() {
		out = out.flat(int(nn))
		if rev != nil {
			*rev = rev.flat(int(nn))
		}
	}
	ng.outOff, ng.outDense, ng.outPatch = out.off, out.dense, out.patch
	if rev != nil {
		ng.lazy.revOnce.Do(func() { ng.lazy.rev.Store(rev) })
	}
	return ng, removed, nil
}

// inRuns returns the new in-lists of every target of the batch's edges —
// ends holds their dense (source, target) pairs, in a graph whose reverse CSR
// was r — and of every appended vertex (at or past nv, below nn), ascending
// by vertex, each of exactly its size. An in-list holds its sources in
// ascending dense order, each source's edges in its out-list's order, so a
// target's new list is its old one with the entries of the batch's sources
// replaced by what out(u), each source's new out-list, holds for it.
func inRuns(r *adjacency, nv, nn int32, ends [][2]int32, out func(u int32) []DenseEdge) []run {
	arcs := make([][2]int32, 0, len(ends)+int(nn-nv)) // (target, source), -1 for none
	for _, e := range ends {
		arcs = append(arcs, [2]int32{e[1], e[0]})
	}
	for v := nv; v < nn; v++ {
		arcs = append(arcs, [2]int32{v, -1})
	}
	slices.SortFunc(arcs, func(x, y [2]int32) int {
		if x[0] != y[0] {
			return int(x[0] - y[0])
		}
		return int(x[1] - y[1])
	})
	arcs = slices.Compact(arcs)
	var runs []run
	var es []DenseEdge // scratch: the list being built
	for len(arcs) > 0 {
		v, n := arcs[0][0], 1
		for n < len(arcs) && arcs[n][0] == v {
			n++
		}
		var old []DenseEdge
		if v < nv {
			old = r.at(v)
		}
		es = es[:0]
		for _, a := range arcs[:n] {
			u := a[1]
			if u < 0 {
				continue
			}
			k := 0
			for k < len(old) && old[k].To < u {
				k++
			}
			es = append(es, old[:k]...)
			for k < len(old) && old[k].To == u {
				k++
			}
			old = old[k:]
			for _, e := range out(u) {
				if e.To == v {
					es = append(es, DenseEdge{To: u, Label: e.Label, W: e.W})
				}
			}
		}
		runs = append(runs, run{v, slices.Clone(append(es, old...))})
		arcs = arcs[n:]
	}
	return runs
}
