package partition

import (
	"fmt"
	"slices"

	"grape/internal/graph"
)

// Fragment is the unit of data a GRAPE worker computes on: the subgraph
// F_i = (V_i ∪ O_i, E_i) where V_i are the inner vertices owned by worker i
// together with all of their out-edges, and O_i are outer copies — remote
// endpoints of cut edges, carried with their labels and properties but
// without out-edges of their own.
//
// Border nodes, in the paper's sense, are the vertices that carry update
// parameters: the outer copies O_i plus the inner vertices that appear as
// outer copies in some other fragment. Border() returns exactly that set.
type Fragment struct {
	// Index is the fragment number i ∈ [0, N).
	Index int
	// G is the local subgraph: inner vertices with their out-edges plus
	// outer copies.
	G *graph.Graph
	// Inner lists the vertices owned by this fragment, ascending.
	Inner []graph.ID
	// Outer lists the outer copies (owned elsewhere), ascending.
	Outer []graph.ID
	// InnerBorder lists inner vertices that some other fragment holds a copy
	// of (i.e. targets of cut edges from elsewhere), ascending.
	InnerBorder []graph.ID

	// n is the number of fragments; owners[i] is the fragment owning the
	// vertex at dense index i of G (Index itself for inner vertices). Both
	// travel in the fragment frame, so Owner answers on either side of it.
	n      int
	owners []int32

	// Dense tables over G's vertex index, from the cut or from the frame.
	// innerAt/innerIdx never change after construction — graph updates only
	// ever add outer copies; the border cache is invalidated by
	// AddOuter/AddInnerBorder and rebuilt on the next Border().
	innerAt   []bool     // dense index -> owned here
	innerIdx  []int32    // dense indices of Inner, parallel to Inner
	border    []graph.ID // cached Border(), ascending
	borderIdx []int32    // dense indices of border, parallel to border
	borderOK  bool
}

// IsInner reports whether id is owned by this fragment.
func (f *Fragment) IsInner(id graph.ID) bool {
	i, ok := f.G.Index(id)
	return ok && f.IsInnerAt(i)
}

// IsInnerAt reports whether the vertex at dense index i of the fragment graph
// is owned by this fragment. Vertices appended after construction (new outer
// copies from graph updates) fall past the cache and are never inner.
func (f *Fragment) IsInnerAt(i int32) bool {
	return int(i) < len(f.innerAt) && f.innerAt[i]
}

// InnerIndices returns the dense indices of the fragment's inner vertices,
// parallel to Inner. The caller must not mutate the returned slice.
func (f *Fragment) InnerIndices() []int32 { return f.innerIdx }

// Owner returns the index of the fragment owning id, a vertex of G. It
// panics if id is absent.
func (f *Fragment) Owner(id graph.ID) int {
	i, ok := f.G.Index(id)
	if !ok {
		panic(fmt.Sprintf("partition: vertex %d not in fragment %d", id, f.Index))
	}
	return int(f.owners[i])
}

// Border returns the nodes of this fragment that carry update parameters:
// Outer ∪ InnerBorder, ascending. The slice is cached across calls (programs
// walk it every superstep); the caller must not mutate it.
func (f *Fragment) Border() []graph.ID {
	if !f.borderOK {
		f.buildBorderCache()
	}
	return f.border
}

// BorderIndices returns the dense indices of Border(), parallel to it. The
// caller must not mutate the returned slice.
func (f *Fragment) BorderIndices() []int32 {
	if !f.borderOK {
		f.buildBorderCache()
	}
	return f.borderIdx
}

// buildBorderCache merges Outer and InnerBorder — both ascending, and
// disjoint because an outer copy is never owned here — into Border().
func (f *Fragment) buildBorderCache() {
	a, b := f.Outer, f.InnerBorder
	out := make([]graph.ID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(append(out, a...), b...)
	f.border = out
	f.borderIdx = make([]int32, len(out))
	for k, id := range out {
		i, ok := f.G.Index(id)
		if !ok {
			i = -1
		}
		f.borderIdx[k] = i
	}
	f.borderOK = true
}

// AddOuter records a new outer copy: id, owned by fragment owner, which graph
// updates just appended to G. It keeps the ownership table and the border
// caches consistent, and is a no-op if id is already an outer copy.
func (f *Fragment) AddOuter(id graph.ID, owner int) {
	n := len(f.Outer)
	f.Outer = insertSortedID(f.Outer, id)
	if len(f.Outer) != n {
		f.owners = append(f.owners, int32(owner))
		f.borderOK = false
	}
}

// AddInnerBorder records that the inner vertex id now has copies elsewhere,
// keeping the border caches consistent. It reports whether id was newly
// added.
func (f *Fragment) AddInnerBorder(id graph.ID) bool {
	n := len(f.InnerBorder)
	f.InnerBorder = insertSortedID(f.InnerBorder, id)
	if len(f.InnerBorder) == n {
		return false
	}
	f.borderOK = false
	return true
}

func insertSortedID(ids []graph.ID, id graph.ID) []graph.ID {
	i, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(ids, i, id)
}

// Layout is the result of cutting a graph into fragments: the fragments plus
// the host index the coordinator uses to route update-parameter messages.
type Layout struct {
	Asg       *Assignment
	Fragments []*Fragment
	// ReplicationBytes estimates the data shipped to build the fragments
	// beyond the plain edge-cut: BuildExpanded replicates d-hop
	// neighborhoods (GRAPE's data-shipping PEval for locality-bounded
	// queries), and that replication is communication the engine charges to
	// the run. Plain Build leaves it zero — outer copies there are part of
	// the initial partitioning, as in the paper's accounting.
	ReplicationBytes int64

	// Dense host index: hostList[hostOff[i]:hostOff[i+1]] is the packed,
	// sorted list of fragments hosting the vertex at dense index i of Asg.G —
	// its owner plus every fragment with an outer copy, so the owner alone
	// for non-border vertices. The coordinator routes every changed value
	// every superstep through it.
	hostOff  []int32
	hostList []int
	// overflow holds host lists that changed after the build: the session
	// layer extends placement when graph updates create new outer copies.
	// It stays nil until the first AddHost so static runs never consult it.
	overflow map[graph.ID][]int
}

// Hosts returns the fragments hosting id, ascending: its owner, plus every
// fragment with an outer copy if id is a border node. It returns nil for a
// vertex the graph does not have. The returned slice is shared; callers must
// not mutate it.
func (l *Layout) Hosts(id graph.ID) []int {
	if l.overflow != nil {
		if hs, ok := l.overflow[id]; ok {
			return hs
		}
	}
	if i, ok := l.Asg.G.Index(id); ok {
		return l.hostList[l.hostOff[i]:l.hostOff[i+1]]
	}
	return nil
}

// AddHost records that fragment w now holds a copy of id. The session layer
// calls it when a graph update creates a new outer copy; it is a no-op if w
// already hosts id.
func (l *Layout) AddHost(id graph.ID, w int) {
	hosts := l.Hosts(id)
	if slices.Contains(hosts, w) {
		return
	}
	merged := append(slices.Clone(hosts), w)
	slices.Sort(merged)
	if l.overflow == nil {
		l.overflow = make(map[graph.ID][]int)
	}
	l.overflow[id] = merged
}

// cut is the bookkeeping Build and BuildExpanded share: who is inner where,
// each fragment's subgraph and outer copies as they are cut, and how many
// copies every vertex has — from which the host index and every fragment's
// inner border fall out, on dense indices of the source graph throughout.
type cut struct {
	g        *graph.Graph // the source, frozen
	asg      *Assignment
	innerOff []int32 // inner(w) = innerAll[innerOff[w]:innerOff[w+1]]
	innerAll []int32
	copies   []int32 // per source vertex: fragments holding an outer copy of it
	pieces   []piece
}

// piece is one fragment mid-cut.
type piece struct {
	g        *graph.Graph
	innerIdx []int32 // dense indices in g of the inner vertices, parallel to inner(w)
	outer    []int32 // the outer copies, as dense indices of the source, in any order
	outerIdx []int32 // and as dense indices in g
}

// newCut starts a cut of g by asg. An unfrozen g is cut from a private frozen
// copy: there is one cut, it reads CSR, and dense indices survive the copy.
func newCut(g *graph.Graph, asg *Assignment) *cut {
	if !g.Frozen() {
		g = g.Clone().Freeze()
	}
	c := &cut{g: g, asg: asg, innerOff: make([]int32, asg.N+1), innerAll: make([]int32, len(asg.owner)),
		copies: make([]int32, len(asg.owner)), pieces: make([]piece, asg.N)}
	for _, w := range asg.owner {
		c.innerOff[w+1]++
	}
	for w := 0; w < asg.N; w++ {
		c.innerOff[w+1] += c.innerOff[w]
	}
	next := slices.Clone(c.innerOff[:asg.N])
	for _, i := range g.SortedIndices() {
		w := asg.owner[i]
		c.innerAll[next[w]] = i
		next[w]++
	}
	return c
}

// inner returns the source dense indices of fragment w's inner vertices,
// ascending by ID.
func (c *cut) inner(w int) []int32 { return c.innerAll[c.innerOff[w]:c.innerOff[w+1]] }

func (c *cut) add(w int, p piece) {
	c.pieces[w] = p
	for _, i := range p.outer {
		c.copies[i]++
	}
}

// layout finishes the cut. The host index is counted out of the fragments'
// outer lists and filled fragment by fragment, so every host list ascends;
// beside each host goes where it keeps the vertex, so one walk over the
// border vertices in ascending-ID order deals every fragment its border —
// outer copies and the inner vertices somebody copied — already sorted.
func (c *cut) layout(replication int64) *Layout {
	nv := len(c.copies)
	l := &Layout{Asg: c.asg, Fragments: make([]*Fragment, len(c.pieces)), ReplicationBytes: replication, hostOff: make([]int32, nv+1)}
	for i, k := range c.copies {
		l.hostOff[i+1] = l.hostOff[i] + 1 + k
	}
	l.hostList = make([]int, l.hostOff[nv])
	at := make([]int32, len(l.hostList)) // at[k]: the vertex's dense index in fragment hostList[k]
	next := slices.Clone(l.hostOff[:nv])
	for w, p := range c.pieces {
		inner, nb := c.inner(w), len(p.outer)
		for _, i := range inner {
			if c.copies[i] > 0 {
				nb++
			}
		}
		nvl := p.g.NumVertices()
		tables := make([]int32, nvl+nb) // both capped: AddOuter appends to owners
		f := &Fragment{Index: w, G: p.g, n: c.asg.N, owners: tables[:nvl:nvl], innerIdx: p.innerIdx, borderIdx: tables[nvl:nvl]}
		l.Fragments[w] = f
		host := func(verts, local []int32) { // w hosts verts, at these dense indices of its own
			for k, i := range verts {
				f.owners[local[k]] = c.asg.owner[i]
				l.hostList[next[i]], at[next[i]] = w, local[k]
				next[i]++
			}
		}
		host(inner, p.innerIdx)
		host(p.outer, p.outerIdx)
	}
	for _, i := range c.g.SortedIndices() {
		for k := l.hostOff[i]; c.copies[i] > 0 && k < l.hostOff[i+1]; k++ {
			f := l.Fragments[l.hostList[k]]
			f.borderIdx = append(f.borderIdx, at[k])
		}
	}
	for _, f := range l.Fragments {
		if err := complete(f); err != nil {
			panic(err) // the cut disagrees with itself
		}
	}
	return l
}

// Build cuts g into fragments according to asg. Every inner vertex keeps all
// of its out-edges; remote endpoints become outer copies with labels and
// properties (matching algorithms inspect them). Each fragment is gathered
// straight out of g's CSR into its own, exact-size CSR by one shared
// graph.SubgraphBuilder — one hash per fragment vertex, none per edge.
func Build(g *graph.Graph, asg *Assignment) *Layout {
	c := newCut(g, asg)
	src := c.g
	b := graph.NewSubgraphBuilder(src)
	first := make([]int32, len(asg.owner)) // a fragment's inner vertices are its first, its outer copies follow: 0, 1, 2, …
	for i := range first {
		first[i] = int32(i)
	}
	var w int // the fragment being cut; keep reads it
	var keep func(int32, graph.DenseEdge) bool
	if !src.Directed() {
		// an undirected intra-fragment edge is stored from its lower endpoint, mirror included
		keep = func(ui int32, e graph.DenseEdge) bool {
			return asg.owner[e.To] != int32(w) || src.IDAt(ui) <= src.IDAt(e.To)
		}
	}
	for w = range c.pieces {
		sub := b.Subgraph(c.inner(w), keep)
		ni, nvl := len(c.inner(w)), sub.NumVertices()
		c.add(w, piece{g: sub, innerIdx: first[:ni:ni], outer: slices.Clone(b.Vertices()[ni:]), outerIdx: first[ni:nvl:nvl]})
	}
	return c.layout(0)
}

// BuildExpanded cuts g into fragments and then expands each with the full
// d-hop neighborhood (both edge directions) of its inner vertices, including
// every edge of g between contained vertices. This is the data-shipping
// variant GRAPE uses for locality-bounded queries such as subgraph
// isomorphism: matches anchored at inner vertices become entirely local, so
// PEval is exact and IncEval terminates in one round.
func BuildExpanded(g *graph.Graph, asg *Assignment, d int) *Layout {
	c := newCut(g, asg)
	src := c.g
	var replication int64
	for w := range c.pieces {
		seeds := make([]graph.ID, len(c.inner(w)))
		for k, i := range c.inner(w) {
			seeds[k] = src.IDAt(i)
		}
		p := piece{g: src.InducedSubgraph(src.UndirectedNeighborhood(seeds, d))}
		for _, li := range p.g.SortedIndices() {
			i, _ := src.Index(p.g.IDAt(li))
			if asg.owner[i] == int32(w) {
				p.innerIdx = append(p.innerIdx, li)
				continue
			}
			p.outer, p.outerIdx = append(p.outer, i), append(p.outerIdx, li)
			// a replicated vertex ships its ID + label + properties, and its
			// locally stored out-edges (ID + target + weight)
			replication += 16 + 24*int64(p.g.OutDegreeAt(li))
		}
		c.add(w, p)
	}
	return c.layout(replication)
}
