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
//
// Invariant: each local set lies inside one component of the current graph,
// and its label is that component's. A session keeps it without re-walking a
// fragment on every batch: after a local deletion a set may be coarser than
// local connectivity, which is sound because its members still share one
// global label; a set is rebuilt only when a split makes it straddle two
// components (RepairBatch).
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

// newCCState builds the local sets of the fragment's CSR, every edge hop
// unioning packed dense indices directly, and labels each set with the lowest
// labelOf among its members.
func newCCState(ctx *engine.Context[graph.ID], labelOf func(i int32) graph.ID) *ccState {
	g := ctx.Frag.G
	nv := g.NumVertices()
	st := &ccState{
		uf:        seq.NewDenseUnionFind(nv),
		rootLabel: make([]graph.ID, nv),
		rootHas:   make([]bool, nv),
		borderOf:  map[int32][]int32{},
	}
	for i := int32(0); i < int32(nv); i++ {
		for _, e := range g.OutAt(i) {
			st.uf.Union(i, e.To)
			ctx.AddWork(1)
		}
	}
	for i := int32(0); i < int32(nv); i++ {
		r := st.uf.Find(i)
		if l := labelOf(i); !st.rootHas[r] || l < st.rootLabel[r] {
			st.rootLabel[r] = l
			st.rootHas[r] = true
		}
		ctx.AddWork(1)
	}
	for _, b := range ctx.Frag.BorderIndices() {
		if b < 0 { // border ID not (yet) in the fragment graph
			continue
		}
		r := st.uf.Find(b)
		st.borderOf[r] = append(st.borderOf[r], b)
	}
	return st
}

// labelAt is the best-known label of the vertex at dense index i: its set's,
// or — for a vertex first seen now (a new outer copy) — its variable, seeded
// from the coordinator, or its own ID if it is inner.
func (st *ccState) labelAt(ctx *engine.Context[graph.ID], i int32) graph.ID {
	if r := st.uf.Find(i); st.rootHas[r] {
		return st.rootLabel[r]
	}
	l := ctx.GetAt(i)
	if l == noComponent && ctx.IsInnerAt(i) {
		l = ctx.Frag.G.IDAt(i)
	}
	return l
}

// merge applies an inserted edge: the local sets of its ends become one,
// labeled with the lower of their labels, and that set's border nodes re-ship
// it. Labels only decrease, so the follow-up fixpoint stays monotone and
// bounded.
func (st *ccState) merge(ctx *engine.Context[graph.ID], upd engine.EdgeUpdate) error {
	g := ctx.Frag.G
	st.grow(g.NumVertices())
	fi, ok := g.Index(upd.From)
	if !ok {
		return fmt.Errorf("cc: update source %d missing from fragment", upd.From)
	}
	ti, ok := g.Index(upd.To)
	if !ok {
		return fmt.Errorf("cc: update target %d missing from fragment", upd.To)
	}
	ru, rv := st.uf.Find(fi), st.uf.Find(ti)
	if ru == rv {
		return nil
	}
	l := min(st.labelAt(ctx, fi), st.labelAt(ctx, ti))
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
	st.rootLabel[nr] = l
	st.rootHas[nr] = true
	for _, b := range borders {
		if l < ctx.GetAt(b) {
			ctx.SetAt(b, l)
		}
		ctx.AddWork(1)
	}
	return nil
}

// rebuild returns the fragment's state recomputed from its spliced CSR, for a
// fragment that hosts a vertex of a piece RepairBatch split off: a member of a
// piece takes the piece's label, any other member keeps the one st gives it,
// and each new set takes the lowest among its members. A set whose label fell
// below what one of its border nodes carries re-ships it, as merge would;
// piece labels reach the variables through ForceValue instead.
func (st *ccState) rebuild(ctx *engine.Context[graph.ID], piece map[graph.ID]graph.ID) *ccState {
	g := ctx.Frag.G
	st.grow(g.NumVertices())
	fresh := newCCState(ctx, func(i int32) graph.ID {
		if l, ok := piece[g.IDAt(i)]; ok {
			return l
		}
		return st.labelAt(ctx, i)
	})
	for _, b := range ctx.Frag.BorderIndices() {
		if b < 0 {
			continue
		}
		if _, ok := piece[g.IDAt(b)]; ok {
			continue
		}
		if l := fresh.rootLabel[fresh.uf.Find(b)]; l < ctx.GetAt(b) {
			ctx.SetAt(b, l)
		}
	}
	return fresh
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
		Less: func(a, b graph.ID) bool { return a < b },
	}
}

// PEval implements engine.Program: local union-find over the fragment, each
// set labeled with its minimum member, and every border node's label shipped.
func (CC) PEval(q CCQuery, ctx *engine.Context[graph.ID]) error {
	st := newCCState(ctx, ctx.Frag.G.IDAt)
	ctx.State = st
	for _, b := range ctx.Frag.BorderIndices() {
		if b >= 0 {
			ctx.SetAt(b, st.rootLabel[st.uf.Find(b)])
		}
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

// CanRepair implements engine.Repairer: the split test and merges below
// are exact for any mix of insertions and deletions.
func (CC) CanRepair(q CCQuery, batch []engine.EdgeUpdate) bool { return true }

// RepairBatch implements engine.Repairer. Deleting an edge can split a
// component, which no monotone label propagation can express — labels only
// decrease — but most deletions split nothing, so a batch costs what it
// changes:
//
//   - Split test. Each deleted edge (u, v) runs a lockstep search from both
//     ends over the mutated global graph (ccRepair.connected). If the searches
//     meet, the deletion changes no label. If one side runs out, it is a
//     whole component of the new graph — a piece, labeled with its minimum —
//     and the other end survives in the old component.
//   - Remainder. The rest of an old component keeps its old label unless its
//     old minimum fell into a piece, or the surviving ends of its splitting
//     deletions do not all meet (ccRepair.settle). Then it is walked whole
//     and becomes a piece too: the only case that costs O(component).
//   - State. Only fragments hosting a piece vertex rebuild their union-find
//     from their spliced CSR (ccState.rebuild), and only the border vertices
//     of pieces get ForceValue, which also re-aligns the coordinator's fold:
//     a split raises labels, which Agg/min would refuse.
//   - Merges. Every other fragment keeps its sets — no set of it meets a
//     piece, so the ccState invariant holds — and takes the batch's inserts
//     through merge; the lowered labels ride the follow-up fixpoint. An
//     insert-only batch is this step alone.
//
// The returned dirty map names the rebuilt fragments, whose lowered border
// labels must flush.
func (CC) RepairBatch(q CCQuery, sc *engine.RepairScope[graph.ID], batch []engine.EdgeUpdate) (map[int][]graph.ID, error) {
	states := make([]*ccState, sc.Workers())
	for w := range states {
		ctx := sc.Ctx(w)
		st, ok := ctx.State.(*ccState)
		if !ok {
			return nil, fmt.Errorf("cc: fragment %d: session state missing (PEval has not run)", w)
		}
		st.grow(ctx.Frag.G.NumVertices())
		states[w] = st
	}
	r := &ccRepair{
		g: sc.Global(),
		oldLabel: func(id graph.ID) graph.ID {
			w := sc.Owner(id)
			ctx := sc.Ctx(w)
			i, _ := ctx.Frag.G.Index(id)
			return states[w].labelAt(ctx, i)
		},
		piece: map[graph.ID]graph.ID{},
		ends:  map[graph.ID][]graph.ID{},
		a:     side{seen: map[graph.ID]bool{}},
		b:     side{seen: map[graph.ID]bool{}},
	}
	for _, u := range batch {
		if u.Del {
			r.cut(u.From, u.To)
		}
	}
	r.settle()

	var dirty map[int][]graph.ID
	rebuilt := make([]bool, sc.Workers())
	for _, id := range r.order {
		for w := range rebuilt {
			if _, ok := sc.Ctx(w).Frag.G.Index(id); ok {
				rebuilt[w] = true
			}
		}
	}
	for w, ok := range rebuilt {
		if ok {
			ctx := sc.Ctx(w)
			ctx.State = states[w].rebuild(ctx, r.piece)
			if dirty == nil {
				dirty = make(map[int][]graph.ID)
			}
			dirty[w] = nil
		}
	}
	for _, u := range batch {
		if w := sc.Owner(u.From); !u.Del && !rebuilt[w] {
			if err := states[w].merge(sc.Ctx(w), u); err != nil {
				return nil, err
			}
		}
	}
	// Only border variables carry labels: a variable forced onto a vertex no
	// one else hosts would stop PublishBorder from shipping its label once
	// the vertex turns border.
	for _, id := range r.order {
		ctx := sc.Ctx(sc.Owner(id))
		if i, _ := ctx.Frag.G.Index(id); ctx.IsBorderAt(i) {
			sc.ForceValue(id, r.piece[id])
		}
	}
	return dirty, nil
}

var _ engine.Repairer[CCQuery, graph.ID] = CC{}

// ccRepair is RepairBatch's view of the batch's splits on the mutated global
// graph: the pieces found so far and, per old component, the surviving ends
// of the deletions that split it.
type ccRepair struct {
	g        *graph.Graph
	oldLabel func(graph.ID) graph.ID // a vertex's label before the batch
	// piece maps every vertex of a piece to the piece's label; order lists
	// them as found.
	piece map[graph.ID]graph.ID
	order []graph.ID
	// ends lists, per old label, the surviving ends of the splitting
	// deletions in that old component; labels holds the old labels in the
	// order first seen.
	ends   map[graph.ID][]graph.ID
	labels []graph.ID
	a, b   side
}

// cut runs the split test for the deleted edge (u, v). An end already in a
// piece needs no search: the other end, if not in one, survives.
func (r *ccRepair) cut(u, v graph.ID) {
	_, pu := r.piece[u]
	_, pv := r.piece[v]
	switch {
	case pu && pv:
	case pu:
		r.survive(v)
	case pv:
		r.survive(u)
	default:
		met, out := r.connected(u, v)
		if met {
			return
		}
		r.addPiece(out)
		if out == &r.a {
			r.survive(v)
		} else {
			r.survive(u)
		}
	}
}

func (r *ccRepair) survive(id graph.ID) {
	l := r.oldLabel(id)
	if _, ok := r.ends[l]; !ok {
		r.labels = append(r.labels, l)
	}
	r.ends[l] = append(r.ends[l], id)
}

// settle applies the remainder rule to every old component a deletion split.
// Its surviving ends outside pieces are searched against one representative;
// a side that runs out is one more piece, and if it was the representative's,
// the other end takes over. The ends left then lie in one component of the
// new graph, which holds everything of the old component outside pieces:
// every path out of a piece crosses a deleted edge, whose other end survived.
// That remainder keeps the old label unless the old minimum — the label — is
// in a piece; then it is walked whole into a piece of its own.
func (r *ccRepair) settle() {
	for _, l := range r.labels {
		rep := graph.NoID
		for _, s := range r.ends[l] {
			if _, ok := r.piece[s]; ok {
				continue
			}
			if rep == graph.NoID {
				rep = s
				continue
			}
			met, out := r.connected(rep, s)
			if met {
				continue
			}
			r.addPiece(out)
			if out == &r.a {
				rep = s
			}
		}
		if _, moved := r.piece[l]; moved && rep != graph.NoID {
			r.a.reset(rep)
			for !r.a.done() {
				r.a.step(r.g, nil)
			}
			r.addPiece(&r.a)
		}
	}
}

// connected runs the lockstep search between u and v over the mutated graph,
// edge direction ignored, expanding one vertex per side per turn. It reports
// whether the two meet; if not, it returns the side that ran out first — a
// whole component of the graph, found at about twice the cost of the smaller
// side at most.
func (r *ccRepair) connected(u, v graph.ID) (bool, *side) {
	if u == v {
		return true, nil
	}
	r.a.reset(u)
	r.b.reset(v)
	for {
		if r.a.done() {
			return false, &r.a
		}
		if r.a.step(r.g, r.b.seen) {
			return true, nil
		}
		if r.b.done() {
			return false, &r.b
		}
		if r.b.step(r.g, r.a.seen) {
			return true, nil
		}
	}
}

// addPiece records the component s reached as a piece, labeled with its
// minimum.
func (r *ccRepair) addPiece(s *side) {
	l := noComponent
	for _, id := range s.queue {
		l = min(l, id)
	}
	for _, id := range s.queue {
		r.piece[id] = l
	}
	r.order = append(r.order, s.queue...)
}

// side is one end of a lockstep search: the vertices it reached, in the order
// reached, and how many of them it has expanded.
type side struct {
	seen  map[graph.ID]bool
	queue []graph.ID
	head  int
}

func (s *side) reset(id graph.ID) {
	clear(s.seen)
	s.seen[id] = true
	s.queue = append(s.queue[:0], id)
	s.head = 0
}

// done reports whether the side has expanded all it reached, which is then a
// whole component.
func (s *side) done() bool { return s.head == len(s.queue) }

// step expands the side's next vertex over its out- and in-edges, read off
// the CSR, and reports whether it reached a vertex of other.
func (s *side) step(g *graph.Graph, other map[graph.ID]bool) bool {
	i, _ := g.Index(s.queue[s.head])
	s.head++
	for _, es := range [2][]graph.DenseEdge{g.OutAt(i), g.InAt(i)} {
		for _, e := range es {
			to := g.IDAt(e.To)
			if other[to] {
				return true
			}
			if !s.seen[to] {
				s.seen[to] = true
				s.queue = append(s.queue, to)
			}
		}
	}
	return false
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
		g := ctx.Frag.G
		for _, i := range ctx.Frag.InnerIndices() {
			out[g.IDAt(i)] = st.rootLabel[st.uf.Find(i)]
		}
	}
	return out, nil
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[CCQuery, graph.ID, map[graph.ID]graph.ID]{
		Prog:        CC{},
		Description: "weakly connected components (union-find PEval, label-merging bounded IncEval, min aggregate)",
		QueryHelp:   "(no parameters)",
		Parse:       func(string) (CCQuery, error) { return CCQuery{}, nil },
		Canonical:   func(CCQuery) string { return "" },
		Reference:   func(g *graph.Graph, _ CCQuery) map[graph.ID]graph.ID { return seq.Components(g) },
		Agree:       agreeMaps[map[graph.ID]graph.ID](equal),
	}))
}
