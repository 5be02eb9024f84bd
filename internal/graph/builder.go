package graph

import "fmt"

// Builder builds a Graph from nothing: vertices and edges are appended to
// per-vertex lists, which Graph then flattens into the CSR form once. A
// Builder is not safe for concurrent use, and it must not be used after
// Graph.
type Builder struct {
	directed bool
	ids      []ID
	index    map[ID]int32
	labels   []string
	props    [][]string
	out      [][]Edge
	numEdges int
}

// NewBuilder returns a builder of a directed graph.
func NewBuilder() *Builder { return &Builder{directed: true, index: make(map[ID]int32)} }

// NewUndirectedBuilder returns a builder of an undirected graph: AddEdge
// stores both directions, and NumEdges counts each undirected edge once.
func NewUndirectedBuilder() *Builder { return &Builder{index: make(map[ID]int32)} }

// AddVertex inserts a vertex with the given label if it does not exist, and
// returns its dense index. Re-adding an existing vertex updates its label
// only when label is non-empty.
func (b *Builder) AddVertex(id ID, label string) int32 {
	if i, ok := b.index[id]; ok {
		if label != "" {
			b.labels[i] = label
		}
		return i
	}
	i := int32(len(b.ids))
	b.index[id] = i
	b.ids = append(b.ids, id)
	b.labels = append(b.labels, label)
	b.props = append(b.props, nil)
	b.out = append(b.out, nil)
	return i
}

// SetProps replaces the property list of id. It panics if id is absent.
func (b *Builder) SetProps(id ID, props []string) { b.props[b.mustIndex(id)] = props }

// AddProp appends a property to id's property list. It panics if id is absent.
func (b *Builder) AddProp(id ID, prop string) {
	i := b.mustIndex(id)
	b.props[i] = append(b.props[i], prop)
}

func (b *Builder) mustIndex(id ID) int32 {
	i, ok := b.index[id]
	if !ok {
		panic(fmt.Sprintf("graph: vertex %d not present", id))
	}
	return i
}

// AddEdge inserts an edge from u to v, creating missing endpoints with empty
// labels. For undirected graphs the reverse edge is stored too. Parallel
// edges are allowed.
func (b *Builder) AddEdge(u, v ID, w float64) { b.AddLabeledEdge(u, v, w, "") }

// AddLabeledEdge is AddEdge with an edge label.
func (b *Builder) AddLabeledEdge(u, v ID, w float64, label string) {
	ui := b.AddVertex(u, "")
	vi := b.AddVertex(v, "")
	b.out[ui] = append(b.out[ui], Edge{To: v, W: w, Label: label})
	if !b.directed {
		b.out[vi] = append(b.out[vi], Edge{To: u, W: w, Label: label})
	}
	b.numEdges++
}

// Out returns the out-edges of id added so far (nil if absent). The caller
// must not mutate the returned slice.
func (b *Builder) Out(id ID) []Edge {
	if i, ok := b.index[id]; ok {
		return b.out[i]
	}
	return nil
}

// Graph flattens what was built into a Graph and returns it. Labels are
// interned vertex labels first, in dense order, then edge labels in CSR
// order; the property lists become one column, none at all when every list
// is empty; the ID index the builder grew becomes the graph's.
func (b *Builder) Graph() *Graph {
	nv := len(b.ids)
	ne := 0
	for _, es := range b.out {
		ne += len(es)
	}
	g := &Graph{
		directed: b.directed,
		ids:      b.ids,
		index:    b.index,
		numEdges: b.numEdges,
		vlab:     make([]int32, nv),
		outOff:   make([]int32, nv+1),
		outDense: make([]DenseEdge, 0, ne),
		labelIDs: make(map[string]int32),
		lazy:     &lazyViews{},
	}
	intern := func(s string) int32 {
		if id, ok := g.labelIDs[s]; ok {
			return id
		}
		id := int32(len(g.labelNames))
		g.labelNames = append(g.labelNames, s)
		g.labelIDs[s] = id
		return id
	}
	for i, l := range b.labels {
		g.vlab[i] = intern(l)
	}
	for i, es := range b.out {
		for _, e := range es {
			g.outDense = append(g.outDense, DenseEdge{To: b.index[e.To], Label: intern(e.Label), W: e.W})
		}
		g.outOff[i+1] = int32(len(g.outDense))
	}
	g.propOff, g.propVals = propColumn(nv, func(i int) []string { return b.props[i] })
	*b = Builder{}
	return g
}
