package partition

import (
	"cmp"
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
// outer copies in some other fragment. BorderIndices() lists exactly that set.
type Fragment struct {
	// Index is the fragment number i ∈ [0, N).
	Index int
	// G is the local subgraph: inner vertices with their out-edges plus
	// outer copies. It holds the fragment's only copy of its vertex IDs
	// (G.IDAt); every list below names vertices by dense index of G.
	G *graph.Graph

	// n is the number of fragments; owners[i] is the fragment owning the
	// vertex at dense index i of G (Index itself for inner vertices). Both
	// travel in the fragment frame, so Owner answers on either side of it.
	n      int
	owners []int32

	// innerIdx lists the dense indices of the inner vertices, ascending by
	// ID. It never changes after construction — graph updates only ever add
	// outer copies.
	innerIdx []int32

	// The border, by position: position p is the vertex at dense index
	// borderIdx[p] and, in a fragment a Layout cut, has the layout's slot
	// slots[p] (a decoded fragment has none: a worker never sees a slot).
	// Update parameters are addressed by position on their way to the
	// coordinator, so positions never move: borderIdx[:sorted], the border as
	// cut or decoded, ascends by ID; what a session made border since follows
	// in the order it arrived.
	borderIdx []int32
	slots     []int32
	sorted    int
}

// search finds id in idx, dense indices of G ascending by ID, by binary
// search over G's ID column.
func (f *Fragment) search(idx []int32, id graph.ID) (int, bool) {
	g := f.G
	return slices.BinarySearchFunc(idx, id, func(i int32, id graph.ID) int { return cmp.Compare(g.IDAt(i), id) })
}

// IsInner reports whether id is owned by this fragment.
func (f *Fragment) IsInner(id graph.ID) bool {
	_, ok := f.search(f.innerIdx, id)
	return ok
}

// IsInnerAt reports whether the vertex at dense index i of the fragment graph
// is owned by this fragment. Vertices appended after construction (new outer
// copies from graph updates) are never inner.
func (f *Fragment) IsInnerAt(i int32) bool {
	return int(i) < len(f.owners) && int(f.owners[i]) == f.Index
}

// InnerIndices returns the dense indices of the fragment's inner vertices,
// ascending by ID. The caller must not mutate the returned slice.
func (f *Fragment) InnerIndices() []int32 { return f.innerIdx }

// Owner returns the index of the fragment owning id, a vertex of G. It
// panics if id is absent.
func (f *Fragment) Owner(id graph.ID) int {
	i, ok := f.Local(id)
	if !ok {
		panic(fmt.Sprintf("partition: vertex %d not in fragment %d", id, f.Index))
	}
	return int(f.owners[i])
}

// BorderIndices returns the dense indices of the nodes of this fragment that
// carry update parameters — its outer copies and the inner vertices some
// other fragment copies — by border position: ascending by ID as cut or
// decoded, then what a session made border since. The caller must not mutate
// the returned slice.
func (f *Fragment) BorderIndices() []int32 { return f.borderIdx }

// Slots returns, parallel to BorderIndices(), the slot each border vertex has
// in the layout this fragment was cut for; nil for a fragment decoded from a
// frame.
func (f *Fragment) Slots() []int32 { return f.slots }

// Local returns the dense index of id in G, found by binary search of the
// inner vertices and the border (every vertex of G is inner or an outer copy),
// never by G's ID index — for a one-off lookup per run, such as a query's
// source, which must not make every fragment build that index.
func (f *Fragment) Local(id graph.ID) (int32, bool) {
	if k, ok := f.search(f.innerIdx, id); ok {
		return f.innerIdx[k], true
	}
	if p, ok := f.BorderPos(id); ok {
		return f.borderIdx[p], true
	}
	return 0, false
}

// BorderPos returns the border position of id.
func (f *Fragment) BorderPos(id graph.ID) (int32, bool) {
	if p, ok := f.search(f.borderIdx[:f.sorted], id); ok {
		return int32(p), true
	}
	for p := f.sorted; p < len(f.borderIdx); p++ {
		if f.G.IDAt(f.borderIdx[p]) == id {
			return int32(p), true
		}
	}
	return 0, false
}

// AddOuter records a new outer copy: id, owned by fragment owner, which graph
// updates just appended to G, and reports whether id was newly added. The
// copy must be G's next vertex past those recorded — a session splices its
// copies in the order it records them — and AddOuter panics if it is not. A
// fragment of a Layout grows through Layout.AddHost, which keeps the slots.
func (f *Fragment) AddOuter(id graph.ID, owner int) bool {
	if _, ok := f.BorderPos(id); ok {
		return false
	}
	i := int32(len(f.owners))
	if int(i) >= f.G.NumVertices() || f.G.IDAt(i) != id || owner == f.Index {
		panic(fmt.Sprintf("partition: fragment %d: outer copy %d of fragment %d is not its graph's next vertex", f.Index, id, owner))
	}
	f.owners = append(f.owners, int32(owner))
	f.borderIdx = append(f.borderIdx, i)
	return true
}

// AddInnerBorder records that id, an inner vertex, now has copies elsewhere.
// It reports whether id was newly added, and panics if id is not inner.
func (f *Fragment) AddInnerBorder(id graph.ID) bool {
	k, ok := f.search(f.innerIdx, id)
	if !ok {
		panic(fmt.Sprintf("partition: vertex %d is not inner to fragment %d", id, f.Index))
	}
	if _, ok := f.BorderPos(id); ok {
		return false
	}
	f.borderIdx = append(f.borderIdx, f.innerIdx[k])
	return true
}

// Layout is the result of cutting a graph into fragments: the fragments plus
// the border index the coordinator folds and routes update parameters by.
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
	// Hops is the expansion depth the fragments were cut with: 0 from
	// Build, d from BuildExpanded. A query needing more is not answerable
	// on this layout.
	Hops int

	// The border index. Every border vertex — one some fragment holds an
	// outer copy of — has a slot; hosts[spans[s].off:][:spans[s].n] lists the
	// fragments hosting slot s's vertex, its owner and every copy holder,
	// ascending, each with where it keeps the vertex. The cut numbers the
	// slots in ascending vertex ID, so among slots [0, cut) slot order is ID
	// order; a vertex a session makes border gets the next slot, and a slot
	// that gains a host its extended list, appended to hosts (the old is left).
	spans []span
	hosts []Host
	cut   int
}

// Host is one fragment hosting a border vertex.
type Host struct {
	Frag int32 // the fragment
	At   int32 // the vertex's dense index in that fragment's graph
}

type span struct{ off, n int32 }

// Slots returns the number of border slots.
func (l *Layout) Slots() int { return len(l.spans) }

// CutSlots returns how many slots the cut numbered: these ascend with vertex
// ID, later ones are in the order sessions added them.
func (l *Layout) CutSlots() int { return l.cut }

// SlotHosts returns the fragments hosting slot s's vertex, ascending. The
// slice is shared; callers must not mutate it.
func (l *Layout) SlotHosts(s int32) []Host {
	sp := l.spans[s]
	return l.hosts[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// SlotID returns the vertex slot s stands for.
func (l *Layout) SlotID(s int32) graph.ID {
	h := l.hosts[l.spans[s].off]
	return l.Fragments[h.Frag].G.IDAt(h.At)
}

// SlotOf returns the slot of id, if id is a border vertex: one hash to find
// its owner and a search of the owner's border. It is for calls that enter the
// engine with an ID (session updates), not for a superstep's updates.
func (l *Layout) SlotOf(id graph.ID) (int32, bool) {
	i, ok := l.Asg.G.Index(id)
	if !ok {
		return 0, false
	}
	f := l.Fragments[l.Asg.owner[i]]
	p, ok := f.BorderPos(id)
	if !ok {
		return 0, false
	}
	return f.slots[p], true
}

// AddHost records that fragment w now holds an outer copy of id, a vertex
// graph updates just appended to w's graph: the copy gets the next border
// position in w, and — if it is id's first copy anywhere, which is reported —
// id the next position in its owner and the next slot. It returns the owner,
// and is a no-op if w already hosts id.
func (l *Layout) AddHost(id graph.ID, w int) (owner int, first bool) {
	owner = l.Asg.Owner(id)
	f, of := l.Fragments[w], l.Fragments[owner]
	if !f.AddOuter(id, owner) {
		return owner, false
	}
	var s int32
	var hs []Host
	if first = of.AddInnerBorder(id); first {
		s = int32(len(l.spans))
		l.spans = append(l.spans, span{})
		of.slots = append(of.slots, s)
		hs = []Host{{int32(owner), of.borderIdx[len(of.borderIdx)-1]}}
	} else {
		p, _ := of.BorderPos(id)
		s = of.slots[p]
		hs = l.SlotHosts(s)
	}
	f.slots = append(f.slots, s)
	k, _ := slices.BinarySearchFunc(hs, int32(w), func(h Host, w int32) int { return cmp.Compare(h.Frag, w) })
	hs = slices.Insert(slices.Clone(hs), k, Host{int32(w), f.borderIdx[len(f.borderIdx)-1]})
	l.spans[s] = span{int32(len(l.hosts)), int32(len(hs))}
	l.hosts = append(l.hosts, hs...)
	return owner, first
}

// cut is the bookkeeping Build and BuildExpanded share: who is inner where,
// each fragment's subgraph and outer copies as they are cut, and how many
// copies every vertex has — from which the host index and every fragment's
// inner border fall out, on dense indices of the source graph throughout.
type cut struct {
	g        *graph.Graph // the source
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

// newCut starts a cut of g by asg.
func newCut(g *graph.Graph, asg *Assignment) *cut {
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

// layout finishes the cut. One walk over the vertices in ascending-ID order
// numbers the border vertices — the slots — and sizes each one's host list;
// the lists are filled fragment by fragment, so every one ascends, each host
// beside where it keeps the vertex; a walk over the slots then deals every
// fragment its border — outer copies and the inner vertices somebody copied,
// each with its slot — already sorted.
func (c *cut) layout(replication int64, hops int) *Layout {
	l := &Layout{Asg: c.asg, Fragments: make([]*Fragment, len(c.pieces)), ReplicationBytes: replication, Hops: hops}
	npairs := 0
	for _, k := range c.copies {
		if k > 0 {
			l.cut++
			npairs += 1 + int(k)
		}
	}
	l.spans, l.hosts = make([]span, 0, l.cut), make([]Host, npairs)
	next := make([]int32, len(c.copies)) // per border vertex: where its next host goes
	off := int32(0)
	for _, i := range c.g.SortedIndices() {
		if k := c.copies[i]; k > 0 {
			l.spans, next[i] = append(l.spans, span{off, 1 + k}), off
			off += 1 + k
		}
	}
	for w, p := range c.pieces {
		inner, nb := c.inner(w), len(p.outer)
		for _, i := range inner {
			if c.copies[i] > 0 {
				nb++
			}
		}
		nvl := p.g.NumVertices()
		tables := make([]int32, nvl+2*nb) // all capped: a session's AddHost appends to each
		f := &Fragment{Index: w, G: p.g, n: c.asg.N, owners: tables[:nvl:nvl], innerIdx: p.innerIdx,
			borderIdx: tables[nvl : nvl : nvl+nb], slots: tables[nvl+nb : nvl+nb]}
		l.Fragments[w] = f
		host := func(verts, local []int32) { // w hosts verts, at these dense indices of its own
			for k, i := range verts {
				f.owners[local[k]] = c.asg.owner[i]
				if c.copies[i] > 0 {
					l.hosts[next[i]] = Host{int32(w), local[k]}
					next[i]++
				}
			}
		}
		host(inner, p.innerIdx)
		host(p.outer, p.outerIdx)
	}
	for s, sp := range l.spans {
		for _, h := range l.hosts[sp.off : sp.off+sp.n] {
			f := l.Fragments[h.Frag]
			f.borderIdx, f.slots = append(f.borderIdx, h.At), append(f.slots, int32(s))
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
// graph.SubgraphBuilder — no hash per fragment vertex or per edge.
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
	return c.layout(0, 0)
}

// BuildExpanded cuts g into fragments and then expands each with the full
// d-hop neighborhood (both edge directions) of its inner vertices. This is
// the data-shipping variant GRAPE uses for locality-bounded queries such as
// subgraph isomorphism: matches anchored at inner vertices become entirely
// local, so PEval is exact and IncEval terminates in one round.
//
// A fragment keeps only the edges such a match can read. At d = 1 that is an
// edge of the region with an inner end, a loop, or an edge between two outer
// copies that closes a triangle with an inner vertex — one some inner vertex
// is adjacent to, either direction, at both ends: every edge of a radius-1
// pattern anchored at an inner vertex (tricount's pivots, the pattern
// library) is one of these, and an edge joining two outer copies with no
// inner neighbor in common is read by none. At d ≥ 2 the exact rule needs
// every vertex's distance to the inner vertices, so a fragment keeps every
// edge between the vertices of its region, a superset.
func BuildExpanded(g *graph.Graph, asg *Assignment, d int) *Layout {
	c := newCut(g, asg)
	src := c.g
	b := graph.NewSubgraphBuilder(src)
	var tri *anchored
	if d == 1 {
		tri = newAnchored(src, asg)
	}
	// an undirected edge is stored from its lower endpoint, mirror included
	directed := src.Directed()
	keep := func(ui int32, e graph.DenseEdge) bool {
		if !directed && src.IDAt(ui) > src.IDAt(e.To) {
			return false
		}
		if tri != nil {
			return tri.keep(ui, e)
		}
		return b.Local(e.To) >= 0
	}
	var replication int64
	for w := range c.pieces {
		region := src.UndirectedNeighborhood(c.inner(w), d)
		if tri != nil {
			tri.deal(int32(w), region)
		}
		p := piece{g: b.Subgraph(region, keep)} // its dense order is the region's
		for _, li := range p.g.SortedIndices() {
			i := region[li]
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
	return c.layout(replication, d)
}

// anchored is BuildExpanded's keep at d = 1, for one fragment at a time. The
// far edges come from one listing of the source's triangles: a triangle
// through a vertex whose other two are outer copies in its owner gives that
// fragment the pair of them. Before a fragment is cut its pairs are dealt out
// to their ends, so the walk stamps an outer seed's partners once, on its
// first edge.
type anchored struct {
	owner    []int32   // per source vertex: the fragment owning it
	far      [][]int32 // per fragment: its far edges, (y, z) pairs of source dense indices
	w        int32     // the fragment being cut
	beg, end []int32   // per vertex of its region: its partners are partners[beg[i]:end[i]]
	partners []int32
	stamp    []int32 // stamp[v] == mark: v is a partner of seed
	seed     int32
	inner    bool // seed is inner
	mark     int32
}

func newAnchored(g *graph.Graph, asg *Assignment) *anchored {
	nv, owner := g.NumVertices(), asg.owner
	a := &anchored{owner: owner, far: make([][]int32, asg.N), beg: make([]int32, nv), end: make([]int32, nv), stamp: make([]int32, nv)}
	g.EachTriangle(func(x, y, z int32) {
		for range 3 {
			if w := owner[x]; owner[y] != w && owner[z] != w {
				a.far[w] = append(a.far[w], y, z)
			}
			x, y, z = y, z, x
		}
	})
	return a
}

// deal lays out fragment w's pairs by end, over region, the vertices of w's
// cut: every end of a pair is an outer copy next to an inner vertex.
func (a *anchored) deal(w int32, region []int32) {
	a.w, a.seed = w, -1
	far := a.far[w]
	for _, i := range region {
		a.end[i] = 0
	}
	for _, v := range far {
		a.end[v]++
	}
	n := int32(0)
	for _, i := range region {
		a.beg[i], a.end[i], n = n, n, n+a.end[i]
	}
	a.partners = slices.Grow(a.partners[:0], len(far))[:len(far)]
	for k := 0; k < len(far); k += 2 {
		y, z := far[k], far[k+1]
		a.partners[a.end[y]], a.partners[a.end[z]] = z, y
		a.end[y]++
		a.end[z]++
	}
}

// keep reports whether fragment w keeps the edge e out of ui.
func (a *anchored) keep(ui int32, e graph.DenseEdge) bool {
	if ui != a.seed {
		a.seed, a.inner = ui, a.owner[ui] == a.w
		if !a.inner {
			a.mark++
			for _, v := range a.partners[a.beg[ui]:a.end[ui]] {
				a.stamp[v] = a.mark
			}
		}
	}
	return a.inner || a.owner[e.To] == a.w || e.To == ui || a.stamp[e.To] == a.mark
}
