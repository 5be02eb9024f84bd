package partition

import (
	"fmt"
	"sort"

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

	// Dense caches over G's vertex index, built lazily after the fragment is
	// assembled (Build/BuildExpanded finalize them eagerly, DecodeFragment
	// takes them from the frame). innerAt/innerIdx never change after
	// construction — graph updates only ever add outer copies; the border
	// caches are invalidated by AddOuter/AddInnerBorder.
	innerAt   []bool     // dense index -> owned here
	innerIdx  []int32    // dense indices of Inner, parallel to Inner
	border    []graph.ID // cached Border(), ascending
	borderIdx []int32    // dense indices of border, parallel to border
	innerOK   bool
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
	if !f.innerOK {
		f.buildInnerCache()
	}
	return int(i) < len(f.innerAt) && f.innerAt[i]
}

// InnerIndices returns the dense indices of the fragment's inner vertices,
// parallel to Inner. The caller must not mutate the returned slice.
func (f *Fragment) InnerIndices() []int32 {
	if !f.innerOK {
		f.buildInnerCache()
	}
	return f.innerIdx
}

func (f *Fragment) buildInnerCache() {
	f.innerAt = make([]bool, f.G.NumVertices())
	f.innerIdx = make([]int32, len(f.Inner))
	for k, id := range f.Inner {
		i, ok := f.G.Index(id)
		if !ok {
			i = -1
		} else {
			f.innerAt[i] = true
		}
		f.innerIdx[k] = i
	}
	f.innerOK = true
}

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

// finalize freezes the local subgraph, records who owns each of its vertices
// and builds the dense caches. Build and BuildExpanded call it once the
// fragment is complete.
func (f *Fragment) finalize(asg *Assignment) {
	f.G.Freeze()
	f.buildInnerCache()
	f.buildBorderCache()
	f.n = asg.N
	f.owners = make([]int32, f.G.NumVertices())
	for i, id := range f.G.Vertices() {
		if f.innerAt[i] {
			f.owners[i] = int32(f.Index)
		} else {
			f.owners[i] = int32(asg.Owner(id))
		}
	}
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
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// Layout is the result of cutting a graph into fragments: the fragments plus
// the placement map the coordinator uses to route update-parameter messages.
type Layout struct {
	Asg       *Assignment
	Fragments []*Fragment
	// Placement maps each border vertex to the sorted list of fragment
	// indices hosting it (its owner plus every fragment with an outer copy).
	// Non-border vertices are absent: their values never travel.
	Placement map[graph.ID][]int
	// ReplicationBytes estimates the data shipped to build the fragments
	// beyond the plain edge-cut: BuildExpanded replicates d-hop
	// neighborhoods (GRAPE's data-shipping PEval for locality-bounded
	// queries), and that replication is communication the engine charges to
	// the run. Plain Build leaves it zero — outer copies there are part of
	// the initial partitioning, as in the paper's accounting.
	ReplicationBytes int64

	// Dense host index: hostList[hostOff[i]:hostOff[i+1]] is the packed,
	// sorted host list of the vertex at dense index i of Asg.G — the owner
	// alone for non-border vertices. The coordinator routes every changed
	// value every superstep, so Hosts must not hash into Placement (a map of
	// individually allocated slices) on that path.
	hostOff  []int32
	hostList []int
	// overflow holds host lists that changed after the build: the session
	// layer extends placement when graph updates create new outer copies.
	// It stays nil until the first AddHost so static runs never consult it.
	overflow map[graph.ID][]int
}

// Hosts returns the fragments hosting id: its placement entry if id is a
// border node, else just its owner. The returned slice is shared; callers
// must not mutate it.
func (l *Layout) Hosts(id graph.ID) []int {
	if l.overflow != nil {
		if hs, ok := l.overflow[id]; ok {
			return hs
		}
	}
	if l.hostOff != nil {
		if i, ok := l.Asg.G.Index(id); ok {
			return l.hostList[l.hostOff[i]:l.hostOff[i+1]]
		}
	}
	if hs, ok := l.Placement[id]; ok {
		return hs
	}
	return []int{l.Asg.Owner(id)}
}

// AddHost records that fragment w now holds a copy of id, keeping Placement
// and the dense host index consistent. The session layer calls it when a
// graph update creates a new outer copy; it is a no-op if w already hosts id.
func (l *Layout) AddHost(id graph.ID, w int) {
	hosts := l.Hosts(id)
	for _, h := range hosts {
		if h == w {
			return
		}
	}
	merged := make([]int, 0, len(hosts)+1)
	merged = append(merged, hosts...)
	merged = append(merged, w)
	sort.Ints(merged)
	if l.overflow == nil {
		l.overflow = make(map[graph.ID][]int)
	}
	l.overflow[id] = merged
	l.Placement[id] = merged
}

// buildHostIndex packs Placement (plus the owner-only default) into the
// dense arrays Hosts reads on the routing hot path.
func (l *Layout) buildHostIndex() {
	g := l.Asg.G
	nv := g.NumVertices()
	size := 0
	for i := 0; i < nv; i++ {
		if hs, ok := l.Placement[g.IDAt(int32(i))]; ok {
			size += len(hs)
		} else {
			size++
		}
	}
	l.hostOff = make([]int32, nv+1)
	l.hostList = make([]int, 0, size)
	for i := 0; i < nv; i++ {
		id := g.IDAt(int32(i))
		if hs, ok := l.Placement[id]; ok {
			l.hostList = append(l.hostList, hs...)
		} else {
			l.hostList = append(l.hostList, l.Asg.Owner(id))
		}
		l.hostOff[i+1] = int32(len(l.hostList))
	}
}

// Build cuts g into fragments according to asg. Every inner vertex keeps all
// of its out-edges; remote endpoints become outer copies with labels and
// properties replicated (matching algorithms inspect them). A frozen input
// produces the fragments directly in CSR form via graph.SubgraphBuilder —
// the whole cut then costs one hash per fragment vertex and zero per edge;
// an unfrozen input goes through the mutable graph API and the fragments are
// frozen afterwards. Both paths yield identical fragments.
func Build(g *graph.Graph, asg *Assignment) *Layout {
	n := asg.N
	frags := make([]*Fragment, n)
	placement := make(map[graph.ID][]int)
	hasCopy := make(map[graph.ID]map[int]bool) // border vertex -> fragments with copies

	if g.Frozen() {
		builders := make([]*graph.SubgraphBuilder, n)
		nv := g.NumVertices()
		for i := 0; i < n; i++ {
			frags[i] = &Fragment{Index: i}
			builders[i] = graph.NewSubgraphBuilder(g, nv/n+1)
		}
		order := g.SortedIndices()
		// inner vertices
		for _, i := range order {
			w := asg.OwnerAt(i)
			id := g.IDAt(i)
			builders[w].AddVertex(i)
			frags[w].Inner = append(frags[w].Inner, id)
		}
		// edges + outer copies
		directed := g.Directed()
		for _, ui := range order {
			uo := asg.OwnerAt(ui)
			b := builders[uo]
			u := g.IDAt(ui)
			for _, e := range g.OutAt(ui) {
				vo := asg.OwnerAt(e.To)
				if !directed && vo == uo && u > g.IDAt(e.To) {
					continue // undirected intra-fragment edge already added via the lower endpoint
				}
				if vo != uo && !b.Has(e.To) {
					b.AddVertex(e.To)
					v := g.IDAt(e.To)
					frags[uo].Outer = append(frags[uo].Outer, v)
					if hasCopy[v] == nil {
						hasCopy[v] = make(map[int]bool)
					}
					hasCopy[v][uo] = true
				}
				b.AddEdge(ui, e)
			}
		}
		for i := 0; i < n; i++ {
			frags[i].G = builders[i].Finish()
		}
	} else {
		for i := 0; i < n; i++ {
			var local *graph.Graph
			if g.Directed() {
				local = graph.New()
			} else {
				local = graph.NewUndirected()
			}
			frags[i] = &Fragment{Index: i, G: local}
		}
		// inner vertices
		for _, id := range g.SortedVertices() {
			f := frags[asg.Owner(id)]
			f.G.AddVertex(id, g.Label(id))
			if ps := g.Props(id); len(ps) > 0 {
				f.G.SetProps(id, append([]string(nil), ps...))
			}
			f.Inner = append(f.Inner, id)
		}
		// edges + outer copies
		for _, u := range g.SortedVertices() {
			uo := asg.Owner(u)
			f := frags[uo]
			for _, e := range g.Out(u) {
				if !g.Directed() && u > e.To && asg.Owner(e.To) == uo {
					continue // undirected intra-fragment edge already added via the lower endpoint
				}
				vo := asg.Owner(e.To)
				if vo != uo && !f.G.Has(e.To) {
					f.G.AddVertex(e.To, g.Label(e.To))
					if ps := g.Props(e.To); len(ps) > 0 {
						f.G.SetProps(e.To, append([]string(nil), ps...))
					}
					f.Outer = append(f.Outer, e.To)
					if hasCopy[e.To] == nil {
						hasCopy[e.To] = make(map[int]bool)
					}
					hasCopy[e.To][uo] = true
				}
				f.G.AddLabeledEdge(u, e.To, e.W, e.Label)
			}
		}
	}
	// Finish border bookkeeping.
	for v, copies := range hasCopy {
		owner := asg.Owner(v)
		of := frags[owner]
		of.InnerBorder = append(of.InnerBorder, v)
		hosts := []int{owner}
		for w := range copies {
			hosts = append(hosts, w)
		}
		sort.Ints(hosts)
		placement[v] = hosts
	}
	for _, f := range frags {
		sort.Slice(f.Outer, func(i, j int) bool { return f.Outer[i] < f.Outer[j] })
		sort.Slice(f.InnerBorder, func(i, j int) bool { return f.InnerBorder[i] < f.InnerBorder[j] })
	}
	for _, f := range frags {
		f.finalize(asg)
	}
	l := &Layout{Asg: asg, Fragments: frags, Placement: placement}
	l.buildHostIndex()
	return l
}

// BuildExpanded cuts g into fragments and then expands each with the full
// d-hop neighborhood (both edge directions) of its inner vertices, including
// every edge of g between contained vertices. This is the data-shipping
// variant GRAPE uses for locality-bounded queries such as subgraph
// isomorphism: matches anchored at inner vertices become entirely local, so
// PEval is exact and IncEval terminates in one round.
func BuildExpanded(g *graph.Graph, asg *Assignment, d int) *Layout {
	n := asg.N
	frags := make([]*Fragment, n)
	innerSets := make([]map[graph.ID]bool, n)
	for i := 0; i < n; i++ {
		innerSets[i] = make(map[graph.ID]bool)
	}
	for _, id := range g.Vertices() {
		innerSets[asg.Owner(id)][id] = true
	}
	for i := 0; i < n; i++ {
		seeds := make([]graph.ID, 0, len(innerSets[i]))
		for id := range innerSets[i] {
			seeds = append(seeds, id)
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		region := g.UndirectedNeighborhood(seeds, d)
		local := g.InducedSubgraph(region)
		f := &Fragment{Index: i, G: local}
		for _, id := range local.SortedVertices() {
			if innerSets[i][id] {
				f.Inner = append(f.Inner, id)
			} else {
				f.Outer = append(f.Outer, id)
			}
		}
		frags[i] = f
	}
	placement := make(map[graph.ID][]int)
	var replication int64
	for i, f := range frags {
		for _, v := range f.Outer {
			placement[v] = append(placement[v], i)
			// a replicated vertex ships its ID + label + properties…
			replication += 16
			// …and its locally stored out-edges (ID + target + weight)
			replication += int64(f.G.OutDegree(v)) * 24
		}
	}
	for v, hosts := range placement {
		owner := asg.Owner(v)
		frags[owner].InnerBorder = append(frags[owner].InnerBorder, v)
		placement[v] = append(hosts, owner)
		sort.Ints(placement[v])
	}
	for _, f := range frags {
		sort.Slice(f.InnerBorder, func(i, j int) bool { return f.InnerBorder[i] < f.InnerBorder[j] })
		f.finalize(asg)
	}
	l := &Layout{Asg: asg, Fragments: frags, Placement: placement, ReplicationBytes: replication}
	l.buildHostIndex()
	return l
}
