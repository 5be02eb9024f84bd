package queries

import (
	"fmt"
	"math/bits"
	"slices"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// SimQuery asks for the graph-simulation relation of a pattern.
type SimQuery struct {
	Pattern *graph.Graph
	// name is the library name the pattern was parsed from, if any; it is
	// what the canonical query form spells (patterns themselves have no
	// canonical text).
	name string
}

// SimResult maps each pattern vertex to the sorted data vertices simulating
// it.
type SimResult map[graph.ID][]graph.ID

// Sim is the PIE program for graph pattern matching via simulation. The
// update parameter of a border node v is the bitmask of pattern vertices v
// may still simulate; it only ever loses bits, aggregated by AND — a
// monotonically decreasing set, so the Assurance Theorem applies.
//
//	PEval    — the Henzinger–Henzinger–Kopke refinement on the fragment,
//	           treating outer copies optimistically (their out-edges are
//	           remote, so their bits cannot be refuted locally).
//	IncEval  — re-refinement seeded only by the nodes whose masks shrank —
//	           the incremental simulation algorithm; work is proportional
//	           to the affected area.
//	Assemble — per pattern vertex, the union of inner vertices holding its
//	           bit.
type Sim struct{}

// Name implements engine.Program.
func (Sim) Name() string { return "sim" }

// fullMask is the "everything still possible" default; any real mask is a
// subset of the pattern's bits.
const fullMask = ^seq.SimBits(0)

// Spec implements engine.Program: masks ∈ (2^pattern, ∩, ⊊).
func (Sim) Spec() engine.VarSpec[seq.SimBits] {
	return engine.VarSpec[seq.SimBits]{
		Default: fullMask,
		Agg:     func(a, b seq.SimBits) seq.SimBits { return a & b },
		Less:    func(a, b seq.SimBits) bool { return a&b == a && a != b }, // strict subset
	}
}

// PEval implements engine.Program.
func (Sim) PEval(q SimQuery, ctx *engine.Context[seq.SimBits]) error {
	if q.Pattern == nil || q.Pattern.NumVertices() == 0 {
		return fmt.Errorf("sim: empty pattern")
	}
	if q.Pattern.NumVertices() > 64 {
		return fmt.Errorf("sim: pattern has %d vertices, max 64", q.Pattern.NumVertices())
	}
	f := ctx.Frag
	// Initial candidates by label. Every replica of a node derives the same
	// mask from its replicated label, so the initialization itself need not
	// be shipped — only refinements are. Outer copies stay optimistic and
	// frozen; their truth arrives from their owner. Label bits come from a
	// table indexed by interned label; the refinement runs over the CSR form.
	g := f.G
	tab := seq.LabelBitsIdx(q.Pattern, g)
	for i := int32(0); i < int32(g.NumVertices()); i++ {
		ctx.SetLocalAt(i, tab[g.LabelIDAt(i)])
		ctx.AddWork(1)
	}
	work := seq.RefineSimIdx(q.Pattern, g, ctx.GetAt, ctx.SetAt,
		func(i int32) bool { return !f.IsInnerAt(i) }, nil, true, func(int32) {})
	ctx.AddWork(work)
	return nil
}

// IncEval implements engine.Program: incremental refinement from the shrunk
// masks.
func (Sim) IncEval(q SimQuery, ctx *engine.Context[seq.SimBits]) error {
	f := ctx.Frag
	work := seq.RefineSimIdx(q.Pattern, f.G, ctx.GetAt, ctx.SetAt,
		func(i int32) bool { return !f.IsInnerAt(i) }, ctx.UpdatedAt(), false, func(int32) {})
	ctx.AddWork(work)
	return nil
}

// CanRepair implements engine.Repairer: deletions only, and only when
// the batch has no insertions. Removing an edge can only shrink simulation
// masks — the same monotone direction as refinement — so re-refining from
// the deleted edges' tails is exact. An insertion can *grow* masks, which
// the AND-aggregated variables cannot express; mixed batches reseed.
func (Sim) CanRepair(q SimQuery, batch []engine.EdgeUpdate) bool {
	for _, u := range batch {
		if !u.Del {
			return false
		}
	}
	return true
}

// RepairBatch implements engine.Repairer by seeding the follow-up
// refinement at each deleted edge's tail: only the tail lost a successor, so
// only its mask can be directly refuted; the refinement cascades to
// ancestors as usual. The retained masks and fold need no surgery — every
// change the repair causes is a shrink, which the monotone machinery
// propagates exactly.
func (Sim) RepairBatch(q SimQuery, sc *engine.RepairScope[seq.SimBits], batch []engine.EdgeUpdate) (map[int][]graph.ID, error) {
	dirty := make(map[int][]graph.ID)
	for _, u := range batch {
		w := sc.Owner(u.From)
		dirty[w] = append(dirty[w], u.From)
	}
	return dirty, nil
}

var _ engine.Repairer[SimQuery, seq.SimBits] = Sim{}

// Assemble implements engine.Program. Every pattern vertex gets an entry,
// empty when nothing simulates it — matching the sequential Sim's shape.
func (Sim) Assemble(q SimQuery, ctxs []*engine.Context[seq.SimBits]) (SimResult, error) {
	pv := q.Pattern.Vertices()
	res := make(SimResult, len(pv))
	for _, u := range pv {
		res[u] = nil
	}
	for _, ctx := range ctxs {
		g := ctx.Frag.G
		ctx.VarsAt(func(i int32, m seq.SimBits) {
			if !ctx.IsInnerAt(i) || m == 0 {
				return
			}
			v := g.IDAt(i)
			for m != 0 {
				k := bits.TrailingZeros64(m)
				m &^= 1 << uint(k)
				u := pv[k]
				res[u] = append(res[u], v)
			}
		})
	}
	for _, vs := range res {
		slices.Sort(vs)
	}
	return res, nil
}

func parseSim(query string) (SimQuery, error) {
	kv, err := parseKV(query)
	if err != nil {
		return SimQuery{}, err
	}
	p, err := PatternByName(kv["pattern"])
	if err != nil {
		return SimQuery{}, err
	}
	return SimQuery{Pattern: p, name: kv["pattern"]}, nil
}

func init() {
	engine.Register(engine.MakeEntry(engine.EntrySpec[SimQuery, seq.SimBits, SimResult]{
		Prog:        Sim{},
		Description: "graph pattern matching via simulation (HHK refinement PEval, incremental refinement IncEval, ∩ aggregate)",
		QueryHelp:   "pattern=<name from queries.Patterns>",
		Parse:       parseSim,
		Canonical:   func(q SimQuery) string { return "pattern=" + q.name },
		Reference:   func(g *graph.Graph, q SimQuery) SimResult { return SimResult(seq.Sim(q.Pattern, g)) },
		Agree:       agreeMaps[SimResult](slices.Equal[[]graph.ID]), // a nil and an empty set are the same
	}))
}
