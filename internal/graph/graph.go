// Package graph provides the in-memory graph representation shared by every
// engine in this repository: the GRAPE core, the vertex-centric and
// block-centric baselines, and the sequential ground-truth algorithms.
//
// A Graph holds vertices identified by sparse int64 IDs at dense indices, so
// adjacency and per-vertex attributes live in slices; the ID → dense index map
// exists only where something looks a vertex up by ID (see csr.go). Graphs
// may be directed or undirected; an undirected graph stores each edge in both
// endpoint adjacency lists. Vertices carry a label (used by pattern matching
// and GPARs) and a list of string properties (used by keyword search), stored
// as the edges are: offsets into one flat array.
//
// A Graph has one representation, the CSR form of csr.go, and every read
// method is safe for concurrent use. A Builder (builder.go) builds one from
// nothing; Splice (splice.go) changes one, building a new graph from the old
// one and a Batch without writing the old arrays: the new graph shares them
// and carries a copy-on-write patch of the lists the batch changed
// (patch.go), folded into fresh arrays once it grows past a fixed share of
// the edges. The edge and vertex mutators on Graph are one-operation
// splices, each O(touched lists), amortised; the property rebuilds are
// O(|G|).
//
// The CSR form is also what travels — flat.go lays the same arrays out as
// aligned sections, the one byte layout of a graph: fragment frames of the
// socket substrate and snapshots (internal/store) carry it, and DecodeFlat
// aliases the arrays back without copying.
package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ID identifies a vertex. IDs are sparse: any non-negative int64 may be used.
type ID int64

// NoID is returned by lookups that find no vertex.
const NoID ID = -1

// Edge is a directed connection to a target vertex with a weight and an
// optional label. For undirected graphs the reverse Edge is stored on the
// other endpoint as well.
type Edge struct {
	To    ID
	W     float64
	Label string
}

// Graph is a labeled, weighted graph in CSR form. The zero value is not
// usable; build one with a Builder, or start from New or NewUndirected.
type Graph struct {
	directed bool
	ids      []ID         // dense index -> ID
	index    map[ID]int32 // ID -> dense index, owned; nil in a graph that never had one (see Index)
	numEdges int

	// The property column: vertex i's properties (keywords etc.) are
	// propVals[propOff[i]:propOff[i+1]]. propOff is nil when no vertex has a
	// property, so a graph without any holds nothing per vertex for them.
	propOff  []int32
	propVals []string

	// The CSR form (see csr.go): the only stored adjacency, a flat CSR with
	// a patch over it on a spliced graph (patch.go; outs bundles the three);
	// lazy holds everything derived from it on first use.
	outOff     []int32     // dense index -> [outOff[i], outOff[i+1]) in outDense
	outDense   []DenseEdge // flat out-adjacency: dense targets, interned labels
	outPatch   *patch      // nil unless spliced
	vlab       []int32     // dense index -> interned vertex label
	labelNames []string
	labelIDs   map[string]int32
	lazy       *lazyViews
}

// lazyViews holds what a graph derives from its out CSR, each part
// under its own sync.Once on the first call that reads it, so concurrent
// first use is safe and a run that never asks never pays: the reverse CSR of
// a directed graph (InAt, In, InDegreeAt), the ascending-ID vertex order
// (SortedIndices), the larger-ID neighbor lists (UpCSR), for a graph with no
// map of its own the ID index (Index and every by-ID lookup), and for a
// spliced graph the flat arrays OutCSR and InCSR fold its patches into.
// Clones share the CSR arrays and so share the views.
type lazyViews struct {
	revOnce, orderOnce, upOnce, indexOnce, outFlatOnce, inFlatOnce sync.Once

	rev             atomic.Pointer[adjacency] // set once, under revOnce; Splice may set it at birth
	order           []int32
	upOff, upAdj    []int32
	index           map[ID]int32 // never written after indexOnce: Splice builds its own
	outFlat, inFlat adjacency
}

// outs returns the graph's out-adjacency: its flat CSR and patch.
func (g *Graph) outs() adjacency { return adjacency{g.outOff, g.outDense, g.outPatch} }

// packed returns the number of packed out-edges, both directions of an
// undirected edge.
func (g *Graph) packed() int {
	if g.outPatch != nil {
		return g.outPatch.packed
	}
	return len(g.outDense)
}

// reverse returns the graph's reverse CSR, deriving it if nothing has yet.
func (g *Graph) reverse() *adjacency {
	s := g.lazy
	s.revOnce.Do(func() { s.rev.Store(reverseCSR(g)) })
	return s.rev.Load()
}

// idIndex returns the graph's ID index: its own map, or — for a graph with
// none — the shared one, built if nothing has yet.
func (g *Graph) idIndex() map[ID]int32 {
	if g.index != nil {
		return g.index
	}
	return g.sharedIndex()
}

func (g *Graph) sharedIndex() map[ID]int32 {
	s := g.lazy
	s.indexOnce.Do(func() { s.index = indexOf(g.ids) })
	return s.index
}

func indexOf(ids []ID) map[ID]int32 {
	m := make(map[ID]int32, len(ids))
	for i, id := range ids {
		m[id] = int32(i)
	}
	return m
}

// New returns an empty directed graph.
func New() *Graph { return NewBuilder().Graph() }

// NewUndirected returns an empty undirected graph. AddEdge stores both
// directions, and NumEdges counts each undirected edge once.
func NewUndirected() *Graph { return NewUndirectedBuilder().Graph() }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns the number of edges. Undirected edges count once.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddVertex inserts a vertex with the given label if it does not exist, and
// returns its dense index. Re-adding an existing vertex updates its label
// only when label is non-empty. Like AddEdge, AddLabeledEdge and RemoveEdge
// it is a one-operation Splice written over the receiver, so a call costs
// what it touches — the lists it changes, the patch's chunk table, and now
// and then a fold, O(|G|) — amortised: bulk callers use a Builder or a
// Batch. A label change copies the vertex labels, O(|V|).
func (g *Graph) AddVertex(id ID, label string) int32 {
	if i, ok := g.Index(id); ok {
		if label != "" && g.LabelAt(i) != label {
			g.relabel(i, label)
		}
		return i
	}
	var b Batch
	b.AddVertex(id, label, nil)
	g.splice(&b)
	return int32(len(g.ids) - 1)
}

// relabel gives the vertex at dense index i a new label, in arrays of the
// graph's own: the old ones may be shared with clones and splices.
func (g *Graph) relabel(i int32, label string) {
	l, ok := g.labelIDs[label]
	if !ok {
		l = int32(len(g.labelNames))
		g.labelNames = append(slices.Clip(g.labelNames), label)
		g.labelIDs = maps.Clone(g.labelIDs)
		g.labelIDs[label] = l
	}
	g.vlab = slices.Clone(g.vlab)
	g.vlab[i] = l
}

// splice applies a batch that cannot be refused and writes the result over g.
func (g *Graph) splice(b *Batch) {
	ng, _, err := Splice(g, b)
	if err != nil {
		panic(err)
	}
	*g = *ng
}

// SetProps replaces the property list of id. It panics if id is absent. Like
// AddProp it rebuilds the property column — a one-operation MapProps — so a
// call is O(|G|): bulk callers use MapProps or a Builder.
func (g *Graph) SetProps(id ID, props []string) {
	i := g.mustIndex(id)
	g.MapProps(func(j int32, old []string) []string {
		if j == i {
			return props
		}
		return old
	})
}

// AddProp appends a property to id's property list. It panics if id is
// absent. A call is O(|G|), as SetProps says.
func (g *Graph) AddProp(id ID, prop string) {
	i := g.mustIndex(id)
	g.MapProps(func(j int32, old []string) []string {
		if j == i {
			return append(old, prop)
		}
		return old
	})
}

// MapProps rebuilds the property column in one O(|G|) pass: f is called once
// per vertex, in dense order, with the vertex's property list, which it must
// not mutate, and returns the vertex's new list. The graph copies that list
// before the next call, so f may hand back one buffer each time. The old
// column is not written: clones and splices that share it keep it.
func (g *Graph) MapProps(f func(i int32, old []string) []string) {
	off := make([]int32, len(g.ids)+1)
	var vals []string
	for i := range g.ids {
		vals = append(vals, f(int32(i), g.PropsAt(int32(i)))...)
		off[i+1] = int32(len(vals))
	}
	g.propOff, g.propVals = nil, nil
	if len(vals) > 0 {
		g.propOff, g.propVals = off, slices.Clone(vals)
	}
}

// propColumn lays n property lists out as a column: the offsets and one
// value array of exactly the values' size, both nil when every list is
// empty. list is called twice per index and must answer the same both times.
func propColumn(n int, list func(i int) []string) ([]int32, []string) {
	total := 0
	for i := range n {
		total += len(list(i))
	}
	if total == 0 {
		return nil, nil
	}
	off, vals := make([]int32, n+1), make([]string, 0, total)
	for i := range n {
		vals = append(vals, list(i)...)
		off[i+1] = int32(len(vals))
	}
	return off, vals
}

// AddEdge inserts an edge from u to v, creating missing endpoints with empty
// labels. For undirected graphs the reverse edge is stored too. Parallel
// edges are allowed. A call costs what it touches, amortised, as AddVertex
// says.
func (g *Graph) AddEdge(u, v ID, w float64) { g.AddLabeledEdge(u, v, w, "") }

// AddLabeledEdge is AddEdge with an edge label.
func (g *Graph) AddLabeledEdge(u, v ID, w float64, label string) {
	var b Batch
	if !g.Has(u) {
		b.AddVertex(u, "", nil)
	}
	if !g.Has(v) && v != u {
		b.AddVertex(v, "", nil)
	}
	b.AddEdge(u, v, w, label)
	g.splice(&b)
}

// RemoveEdge removes one edge instance from u to v with the given label
// (weight is not part of the match; parallel edges with the same label are
// removed one instance per call, first in adjacency order) and returns the
// removed edge. For undirected graphs the stored reverse instance goes too.
// When no edge matches, the graph is unchanged and ok is false. A call costs
// what it touches, amortised, as AddVertex says.
func (g *Graph) RemoveEdge(u, v ID, label string) (removed Edge, ok bool) {
	var b Batch
	b.RemoveEdge(u, v, label)
	ng, ws, err := Splice(g, &b)
	if err != nil {
		return Edge{}, false
	}
	*g = *ng
	return Edge{To: v, W: ws[0], Label: label}, true
}

// Has reports whether the vertex exists.
func (g *Graph) Has(id ID) bool { _, ok := g.Index(id); return ok }

// Label returns the label of id, or "" if id is absent.
func (g *Graph) Label(id ID) string {
	if i, ok := g.Index(id); ok {
		return g.LabelAt(i)
	}
	return ""
}

// Props returns the property list of id (nil if absent). The caller must not
// mutate the returned slice.
func (g *Graph) Props(id ID) []string {
	if i, ok := g.Index(id); ok {
		return g.PropsAt(i)
	}
	return nil
}

// Out returns the out-edges of id (nil if absent or none), built from OutAt
// on each call: a by-ID convenience for programs, examples and tests. Library
// code walks OutAt.
func (g *Graph) Out(id ID) []Edge {
	if i, ok := g.Index(id); ok {
		return g.edges(g.OutAt(i))
	}
	return nil
}

// In returns the in-edges of id (nil if absent or none), built from InAt on
// each call, as Out is. For undirected graphs In equals Out.
func (g *Graph) In(id ID) []Edge {
	if i, ok := g.Index(id); ok {
		return g.edges(g.InAt(i))
	}
	return nil
}

// edges resolves packed edges to a fresh []Edge, nil when there are none.
func (g *Graph) edges(dense []DenseEdge) []Edge {
	if len(dense) == 0 {
		return nil
	}
	out := make([]Edge, len(dense))
	for k, e := range dense {
		out[k] = Edge{To: g.ids[e.To], W: e.W, Label: g.labelNames[e.Label]}
	}
	return out
}

// OutDegree returns the out-degree of id, 0 if absent.
func (g *Graph) OutDegree(id ID) int {
	if i, ok := g.Index(id); ok {
		return g.OutDegreeAt(i)
	}
	return 0
}

// InDegree returns the in-degree of id, 0 if absent.
func (g *Graph) InDegree(id ID) int {
	if i, ok := g.Index(id); ok {
		return g.InDegreeAt(i)
	}
	return 0
}

// Vertices returns all vertex IDs in insertion order. The caller must not
// mutate the returned slice.
func (g *Graph) Vertices() []ID { return g.ids }

// SortedVertices returns all vertex IDs in ascending order (a fresh slice).
func (g *Graph) SortedVertices() []ID {
	out := make([]ID, len(g.ids))
	copy(out, g.ids)
	slices.Sort(out)
	return out
}

// Index returns the dense index of id and whether it exists. Dense indices
// are stable across the graph's lifetime and its splices, and lie in [0,
// NumVertices). Every by-ID lookup goes through it; on a graph with no map of
// its own the first call builds the ID index, once, safely under concurrent
// first use.
func (g *Graph) Index(id ID) (int32, bool) {
	i, ok := g.idIndex()[id]
	return i, ok
}

// IDAt returns the vertex ID at dense index i.
func (g *Graph) IDAt(i int32) ID { return g.ids[i] }

func (g *Graph) mustIndex(id ID) int32 {
	i, ok := g.Index(id)
	if !ok {
		panic(fmt.Sprintf("graph: vertex %d not present", id))
	}
	return i
}

// Clone returns a copy of the graph that shares the immutable CSR arrays and
// patch, label table, property column and derived views — the ID index built
// on first lookup included (nothing writes them in place). The ids and ID
// index are copied, and the shared vertex labels and property column are
// clipped, so Splice, which appends to them, gives each of two clones an
// array of its own.
func (g *Graph) Clone() *Graph {
	return &Graph{
		directed:   g.directed,
		ids:        append([]ID(nil), g.ids...),
		index:      maps.Clone(g.index),
		numEdges:   g.numEdges,
		outOff:     g.outOff,
		outDense:   g.outDense,
		outPatch:   g.outPatch,
		vlab:       slices.Clip(g.vlab),
		propOff:    slices.Clip(g.propOff),
		propVals:   slices.Clip(g.propVals),
		labelNames: g.labelNames,
		labelIDs:   g.labelIDs,
		lazy:       g.lazy,
	}
}

// Symmetrized returns a directed copy of g with every edge mirrored, so
// algorithms that flood along out-edges see weak connectivity. Labels,
// properties and weights are preserved; mirror edges reuse the original
// weight and label.
func (g *Graph) Symmetrized() *Graph {
	s := NewBuilder()
	for i, id := range g.ids {
		s.AddVertex(id, g.LabelAt(int32(i)))
		if ps := g.PropsAt(int32(i)); len(ps) > 0 {
			s.SetProps(id, ps)
		}
	}
	for i, u := range g.ids {
		for _, e := range g.OutAt(int32(i)) {
			v, l := g.ids[e.To], g.labelNames[e.Label]
			s.AddLabeledEdge(u, v, e.W, l)
			s.AddLabeledEdge(v, u, e.W, l)
		}
	}
	return s.Graph()
}

// TotalWeight returns the sum of all edge weights (undirected edges once).
func (g *Graph) TotalWeight() float64 {
	var t float64
	for i, u := range g.ids {
		for _, e := range g.OutAt(int32(i)) {
			if g.directed || u <= g.ids[e.To] {
				t += e.W
			}
		}
	}
	return t
}

// Diff returns the first observable difference between a and b — kind, dense
// vertex order, labels, properties, per-vertex adjacency order, edge count —
// or nil when there is none. Weights compare by their bits, so a NaN weight
// equals itself. The label intern order is not observable and does not count.
func Diff(a, b *Graph) error {
	if a.directed != b.directed || a.numEdges != b.numEdges || !slices.Equal(a.ids, b.ids) {
		return fmt.Errorf("graph: kind, edge count or dense vertex order differ")
	}
	for i, id := range a.ids {
		if la, lb := a.LabelAt(int32(i)), b.LabelAt(int32(i)); la != lb {
			return fmt.Errorf("graph: vertex %d labelled %q vs %q", id, la, lb)
		}
		if pa, pb := a.PropsAt(int32(i)), b.PropsAt(int32(i)); !slices.Equal(pa, pb) {
			return fmt.Errorf("graph: vertex %d properties %v vs %v", id, pa, pb)
		}
		ea, eb := a.OutAt(int32(i)), b.OutAt(int32(i))
		if len(ea) != len(eb) {
			return fmt.Errorf("graph: vertex %d has %d vs %d out-edges", id, len(ea), len(eb))
		}
		for k, x := range ea {
			y := eb[k]
			if x.To != y.To || math.Float64bits(x.W) != math.Float64bits(y.W) || a.labelNames[x.Label] != b.labelNames[y.Label] {
				return fmt.Errorf("graph: vertex %d out-edge %d: %+v vs %+v", id, k, a.edges(ea[k : k+1])[0], b.edges(eb[k : k+1])[0])
			}
		}
	}
	return nil
}

// Validate checks internal consistency and returns an error describing the
// first problem found, or nil. Tests use it to check a graph after
// deserialization.
func (g *Graph) Validate() error {
	nv := len(g.ids)
	a := g.outs()
	if g.propOff != nil && len(g.propOff) != nv+1 || nv != len(g.vlab) || len(a.off) > nv+1 || a.patch == nil && len(a.off) != nv+1 {
		return fmt.Errorf("graph: inconsistent slice lengths")
	}
	if g.propOff != nil {
		if err := checkOffsets(g.propOff, len(g.propVals)); err != nil {
			return fmt.Errorf("graph: property column: %w", err)
		}
	}
	index := g.idIndex()
	if len(index) != nv {
		return fmt.Errorf("graph: %d distinct vertex IDs of %d", len(index), nv)
	}
	for id, i := range index {
		if int(i) >= nv || g.ids[i] != id {
			return fmt.Errorf("graph: index entry %d -> %d broken", id, i)
		}
	}
	if err := checkOffsets(a.off, len(a.dense)); err != nil {
		return fmt.Errorf("graph: out CSR: %w", err)
	}
	if err := checkDense(a.dense, nv, len(g.labelNames)); err != nil {
		return fmt.Errorf("graph: out CSR: %w", err)
	}
	if a.patch == nil {
		return nil
	}
	if len(a.patch.chunks) != (nv+chunkMask)>>chunkBits {
		return fmt.Errorf("graph: out patch covers %d chunks of %d vertices", len(a.patch.chunks), nv)
	}
	packed := 0
	for i := range int32(nv) {
		es, ok := a.patch.list(i)
		if !ok && int(i) >= len(a.off)-1 {
			return fmt.Errorf("graph: out patch misses appended vertex %d", i)
		}
		if err := checkDense(es, nv, len(g.labelNames)); err != nil {
			return fmt.Errorf("graph: out patch, vertex %d: %w", i, err)
		}
		packed += len(a.at(i))
	}
	if packed != a.patch.packed {
		return fmt.Errorf("graph: out patch counts %d packed edges of %d", a.patch.packed, packed)
	}
	return nil
}
