package queries

import (
	"fmt"
	"math"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// CCQuery asks for the weakly connected components of the graph (edge
// direction ignored). It carries no parameters.
type CCQuery struct{}

// ccState is the per-worker state CC keeps between supersteps: the fragment's
// local connectivity never changes, so it is computed once by PEval as a
// union-find, and IncEval only moves component labels, never re-walks edges —
// a bounded IncEval. Everything is addressed by the fragment graph's dense
// vertex index: the union-find is flat arrays, and labels/border lists key on
// dense root indices.
type ccState struct {
	uf *seq.DenseUnionFind
	// rootLabel is the current (global) component label of each local set,
	// indexed by dense root index; rootHas marks which entries are live.
	rootLabel []graph.ID
	rootHas   []bool
	// borderOf lists the border nodes (dense indices) in each local set;
	// lowering a set's label means re-shipping exactly these.
	borderOf map[int32][]int32
}

// grow extends the dense state to cover nv vertices; the session layer
// appends outer copies to the fragment graph.
func (st *ccState) grow(nv int) {
	st.uf.Grow(nv)
	for len(st.rootLabel) < nv {
		st.rootLabel = append(st.rootLabel, 0)
		st.rootHas = append(st.rootHas, false)
	}
}

// CC is the PIE program for connected components: PEval labels local
// components with their minimum vertex ID (textbook union-find CC); the
// labels of border nodes are the update parameters with min as the
// aggregate; IncEval merges incoming lower labels into whole local sets.
// Labels decrease monotonically, so termination and correctness follow from
// the Assurance Theorem.
type CC struct{}

// Name implements engine.Program.
func (CC) Name() string { return "cc" }

// noComponent is the label of a node that has not been assigned yet.
const noComponent = graph.ID(math.MaxInt64)

// Spec implements engine.Program: labels ∈ (vertex IDs, min, <).
func (CC) Spec() engine.VarSpec[graph.ID] {
	return engine.VarSpec[graph.ID]{
		Default: noComponent,
		Agg: func(a, b graph.ID) graph.ID {
			if a < b {
				return a
			}
			return b
		},
		Eq:   func(a, b graph.ID) bool { return a == b },
		Less: func(a, b graph.ID) bool { return a < b },
		Size: func(graph.ID) int { return 8 },
	}
}

// PEval implements engine.Program: local union-find over the fragment, every
// edge hop unioning packed dense indices directly.
func (CC) PEval(q CCQuery, ctx *engine.Context[graph.ID]) error {
	f := ctx.Frag
	g := f.G
	nv := g.NumVertices()
	st := &ccState{
		uf:        seq.NewDenseUnionFind(nv),
		rootLabel: make([]graph.ID, nv),
		rootHas:   make([]bool, nv),
		borderOf:  map[int32][]int32{},
	}
	ctx.State = st
	for i := int32(0); i < int32(nv); i++ {
		for _, e := range g.OutAt(i) {
			st.uf.Union(i, e.To)
			ctx.AddWork(1)
		}
	}
	// label each set with its minimum member
	for i := int32(0); i < int32(nv); i++ {
		r := st.uf.Find(i)
		if v := g.IDAt(i); !st.rootHas[r] || v < st.rootLabel[r] {
			st.rootLabel[r] = v
			st.rootHas[r] = true
		}
		ctx.AddWork(1)
	}
	for _, b := range f.BorderIndices() {
		if b < 0 { // border ID not (yet) in the fragment graph
			continue
		}
		r := st.uf.Find(b)
		st.borderOf[r] = append(st.borderOf[r], b)
	}
	for _, b := range f.BorderIndices() {
		if b < 0 {
			continue
		}
		ctx.SetAt(b, st.rootLabel[st.uf.Find(b)])
	}
	return nil
}

// IncEval implements engine.Program: a lowered border label lowers the label
// of its entire local set and re-ships that set's border nodes. Work is
// proportional to the sets touched, independent of |F_i|.
//
// All incoming values are folded per local set before any variable is
// written: writing while reading would let a set's relabel overwrite a
// not-yet-processed (lower) update on a shared border node.
func (CC) IncEval(q CCQuery, ctx *engine.Context[graph.ID]) error {
	st := ctx.State.(*ccState)
	best := make(map[int32]graph.ID) // root -> lowest incoming label
	for _, u := range ctx.UpdatedAt() {
		l := ctx.GetAt(u)
		r := st.uf.Find(u)
		if cur, ok := best[r]; !ok || l < cur {
			best[r] = l
		}
		ctx.AddWork(1)
	}
	for r, l := range best {
		if l >= st.rootLabel[r] {
			continue
		}
		st.rootLabel[r] = l
		st.rootHas[r] = true
		for _, b := range st.borderOf[r] {
			if l < ctx.GetAt(b) {
				ctx.SetAt(b, l)
			}
			ctx.AddWork(1)
		}
	}
	return nil
}

// ApplyUpdate implements engine.Updater: inserting edge (u, v) merges the
// local sets of u and v; labels only decrease (toward the new minimum), so
// the computation stays monotone and the follow-up IncEval is bounded.
func (CC) ApplyUpdate(q CCQuery, ctx *engine.Context[graph.ID], upd engine.EdgeUpdate) ([]graph.ID, error) {
	st, ok := ctx.State.(*ccState)
	if !ok {
		return nil, fmt.Errorf("cc: session state missing (PEval has not run)")
	}
	f := ctx.Frag
	g := f.G
	st.grow(g.NumVertices())
	fi, ok := g.Index(upd.From)
	if !ok {
		return nil, fmt.Errorf("cc: update source %d missing from fragment", upd.From)
	}
	ti, ok := g.Index(upd.To)
	if !ok {
		return nil, fmt.Errorf("cc: update target %d missing from fragment", upd.To)
	}
	ru, rv := st.uf.Find(fi), st.uf.Find(ti)
	labelOf := func(r, i int32, v graph.ID) graph.ID {
		if st.rootHas[r] {
			return st.rootLabel[r]
		}
		// a vertex first seen now (new outer copy): its best-known label is
		// its variable (seeded from the coordinator) or, if inner, itself
		l := ctx.GetAt(i)
		if l == noComponent && f.IsInnerAt(i) {
			l = v
		}
		return l
	}
	lu, lv := labelOf(ru, fi, upd.From), labelOf(rv, ti, upd.To)
	min := lu
	if lv < min {
		min = lv
	}
	if ru != rv {
		st.uf.Union(fi, ti)
		nr := st.uf.Find(fi)
		// merge bookkeeping of both old roots into the new one
		borders := append(st.borderOf[ru], st.borderOf[rv]...)
		delete(st.borderOf, ru)
		delete(st.borderOf, rv)
		// newly-border endpoints must be tracked too
		for _, i := range []int32{fi, ti} {
			if ctx.IsBorderAt(i) && !containsBorder(borders, i) {
				borders = append(borders, i)
			}
		}
		st.borderOf[nr] = borders
		st.rootHas[ru], st.rootHas[rv] = false, false
		st.rootLabel[ru], st.rootLabel[rv] = 0, 0
		st.rootLabel[nr] = min
		st.rootHas[nr] = true
		for _, b := range borders {
			if min < ctx.GetAt(b) {
				ctx.SetAt(b, min)
			}
			ctx.AddWork(1)
		}
	}
	return nil, nil
}

// PublishBorder implements engine.BorderPublisher: when a graph update turns
// an inner node into a border node, materialize and ship its current label
// (CC keeps labels per local set, not per node, so Context.touch would find
// nothing to re-ship).
func (CC) PublishBorder(q CCQuery, ctx *engine.Context[graph.ID], id graph.ID) {
	st, ok := ctx.State.(*ccState)
	if !ok {
		return
	}
	g := ctx.Frag.G
	st.grow(g.NumVertices())
	i, ok := g.Index(id)
	if !ok {
		return
	}
	r := st.uf.Find(i)
	if !containsBorder(st.borderOf[r], i) {
		st.borderOf[r] = append(st.borderOf[r], i)
	}
	l := st.rootLabel[r]
	if !st.rootHas[r] {
		l = id
		st.rootLabel[r] = l
		st.rootHas[r] = true
	}
	if l < ctx.GetAt(i) {
		ctx.SetAt(i, l)
	}
}

// CanRepair implements engine.DeleteRepairer: the region relabel below is
// exact for any mix of insertions and deletions.
func (CC) CanRepair(q CCQuery, batch []engine.EdgeUpdate) bool { return true }

// RepairBatch implements engine.DeleteRepairer. Deleting an edge can split a
// component, which no monotone label propagation can express — labels only
// decrease. Instead the repair recomputes connectivity exactly on the region
// the batch can possibly affect: the union of the old components of every
// batch endpoint. That region is closed under new-graph adjacency (old edges
// connect vertices of one old component; inserted edges connect batch
// endpoints), so a union-find over the region's vertices against the mutated
// global graph yields their exact new components, labeled min-member as
// everywhere else. Fragment states are then re-aligned: fragments whose
// local adjacency changed (they own a batch edge) rebuild their union-find
// from scratch, the rest only relabel the local sets containing region
// members. Variables and the coordinator's fold are overwritten with the new
// labels — a split raises labels, which the monotone machinery would reject.
// The returned dirty map is empty: the repair is already exact, so the
// follow-up fixpoint converges immediately.
func (CC) RepairBatch(q CCQuery, sc *engine.RepairScope[graph.ID], batch []engine.EdgeUpdate) (map[int][]graph.ID, error) {
	g := sc.Global()
	oldLabelOf := func(id graph.ID) graph.ID {
		ctx := sc.Ctx(sc.Owner(id))
		st, ok := ctx.State.(*ccState)
		if !ok {
			return id
		}
		i, ok := ctx.Frag.G.Index(id)
		if !ok || int(i) >= len(st.rootLabel) {
			return id
		}
		r := st.uf.Find(i)
		if !st.rootHas[r] {
			return id
		}
		return st.rootLabel[r]
	}
	touched := make(map[graph.ID]bool)
	for _, u := range batch {
		touched[oldLabelOf(u.From)] = true
		touched[oldLabelOf(u.To)] = true
	}
	// region: every vertex of a touched old component, in ascending ID order
	var region []graph.ID
	pos := make(map[graph.ID]int)
	for _, id := range g.Vertices() {
		if touched[oldLabelOf(id)] {
			pos[id] = len(region)
			region = append(region, id)
		}
	}
	// exact new connectivity of the region against the mutated graph
	ruf := seq.NewDenseUnionFind(len(region))
	for k, id := range region {
		for _, e := range g.Out(id) {
			if j, ok := pos[e.To]; ok {
				ruf.Union(int32(k), int32(j))
			}
		}
	}
	minLabel := make([]graph.ID, len(region))
	for k := range region {
		minLabel[k] = noComponent
	}
	for k, id := range region {
		r := ruf.Find(int32(k))
		if id < minLabel[r] {
			minLabel[r] = id
		}
	}
	newLabel := func(k int) graph.ID { return minLabel[ruf.Find(int32(k))] }

	mutated := make(map[int]bool)
	for _, u := range batch {
		mutated[sc.Owner(u.From)] = true
	}
	for w := 0; w < sc.Workers(); w++ {
		ctx := sc.Ctx(w)
		st, ok := ctx.State.(*ccState)
		if !ok {
			continue
		}
		fg := ctx.Frag.G
		st.grow(fg.NumVertices())
		if mutated[w] {
			// local adjacency changed: rebuild the union-find over the
			// mutated fragment graph, carrying each member's exact global
			// label (new for region members, unchanged for the rest — every
			// local set is globally connected, so its members agree)
			old := *st
			nv := fg.NumVertices()
			fresh := &ccState{
				uf:        seq.NewDenseUnionFind(nv),
				rootLabel: make([]graph.ID, nv),
				rootHas:   make([]bool, nv),
				borderOf:  map[int32][]int32{},
			}
			for i := int32(0); i < int32(nv); i++ {
				for _, e := range fg.OutAt(i) {
					fresh.uf.Union(i, e.To)
				}
			}
			for i := int32(0); i < int32(nv); i++ {
				id := fg.IDAt(i)
				var l graph.ID
				if k, ok := pos[id]; ok {
					l = newLabel(k)
				} else {
					or := old.uf.Find(i)
					if old.rootHas[or] {
						l = old.rootLabel[or]
					} else {
						l = id
					}
				}
				r := fresh.uf.Find(i)
				if !fresh.rootHas[r] || l < fresh.rootLabel[r] {
					fresh.rootLabel[r] = l
					fresh.rootHas[r] = true
				}
			}
			for _, b := range ctx.Frag.BorderIndices() {
				if b < 0 {
					continue
				}
				r := fresh.uf.Find(b)
				fresh.borderOf[r] = append(fresh.borderOf[r], b)
			}
			ctx.State = fresh
			continue
		}
		// adjacency untouched: only relabel the local sets holding region
		// members (a local set is globally connected, so one member's new
		// label is the whole set's)
		for k, id := range region {
			if i, ok := fg.Index(id); ok {
				r := st.uf.Find(i)
				st.rootLabel[r] = newLabel(k)
				st.rootHas[r] = true
			}
		}
	}
	// re-align the shipped variables and the coordinator's baseline: a split
	// raises labels, which Agg/min would refuse
	for k, id := range region {
		sc.ForceValue(id, newLabel(k))
	}
	return nil, nil
}

func containsBorder(idxs []int32, i int32) bool {
	for _, x := range idxs {
		if x == i {
			return true
		}
	}
	return false
}

// Assemble implements engine.Program: read each inner vertex's label off its
// local set, via the fragment's cached dense inner indices.
func (CC) Assemble(q CCQuery, ctxs []*engine.Context[graph.ID]) (map[graph.ID]graph.ID, error) {
	out := make(map[graph.ID]graph.ID, innerCount(ctxs))
	for _, ctx := range ctxs {
		st := ctx.State.(*ccState)
		inner := ctx.Frag.Inner
		iidx := ctx.Frag.InnerIndices()
		for k, v := range inner {
			out[v] = st.rootLabel[st.uf.Find(iidx[k])]
		}
	}
	return out, nil
}

func init() {
	engine.Register(entry(CC{},
		"weakly connected components (union-find PEval, label-merging bounded IncEval, min aggregate)",
		"(no parameters)",
		func(string) (CCQuery, error) { return CCQuery{}, nil },
		func(CCQuery) string { return "" }, nil))
}
