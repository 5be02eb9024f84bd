package seq

import (
	"fmt"
	"math/bits"

	"grape/internal/graph"
)

// Sim computes graph simulation of pattern p in data graph g — the
// Henzinger–Henzinger–Kopke refinement. The result maps each pattern vertex
// u to the sorted set sim(u) of data vertices v such that
//
//   - label(v) = label(u), and
//   - for every pattern edge (u, u') with label ℓ there is a data edge
//     (v, v') with label ℓ (empty pattern label matches any) and v' ∈ sim(u').
//
// Graph simulation is the quadratic-time relative of subgraph isomorphism
// used by the demo's Sim query class. It runs the engine's kernel,
// RefineSimIdx, over every vertex of g, so like SimBits it takes
// at most 64 pattern vertices and panics past that bound.
func Sim(p, g *graph.Graph) map[graph.ID][]graph.ID {
	pv := p.Vertices()
	if len(pv) > 64 {
		panic(fmt.Sprintf("seq.Sim: pattern has %d vertices, max 64", len(pv)))
	}
	tab := LabelBitsIdx(p, g)
	mask := make([]SimBits, g.NumVertices())
	for i := range mask {
		mask[i] = tab[g.LabelIDAt(int32(i))]
	}
	RefineSimIdx(p, g, func(i int32) SimBits { return mask[i] }, func(i int32, m SimBits) { mask[i] = m },
		func(int32) bool { return false }, nil, true, func(int32) {})
	out := make(map[graph.ID][]graph.ID, len(pv))
	for _, u := range pv {
		out[u] = []graph.ID{}
	}
	for _, i := range g.SortedIndices() {
		for m := mask[i]; m != 0; m &= m - 1 {
			u := pv[bits.TrailingZeros64(m)]
			out[u] = append(out[u], g.IDAt(i))
		}
	}
	return out
}

// SimBits is the bitmask encoding of simulation sets used by the distributed
// Sim PIE program: bit k of the mask of data vertex v is set iff v may still
// simulate the k-th pattern vertex (in p.Vertices() order). Patterns are
// limited to 64 vertices, far beyond any practical simulation pattern.
type SimBits = uint64

// LabelBitsIdx returns the initial masks of the data graph g's
// vertices, per interned label: entry lid holds one bit per pattern vertex
// labelled LabelName(lid), and is the mask of every vertex whose LabelIDAt is
// lid.
func LabelBitsIdx(p, g *graph.Graph) []SimBits {
	tab := make([]SimBits, g.NumLabels())
	for k, u := range p.Vertices() {
		if lid, ok := g.LabelID(p.Label(u)); ok {
			tab[lid] |= 1 << uint(k)
		}
	}
	return tab
}

// simPlanEdge is one pattern edge prepared for the dense refinement: the bit
// of the target pattern vertex and the pattern edge label resolved against
// the data graph's intern table, so the inner matching loop compares int32s.
type simPlanEdge struct {
	j       int   // bit index of the pattern edge's target
	lid     int32 // interned data label the edge must match
	any     bool  // empty pattern label: matches every data edge
	present bool  // the label occurs in the data graph at all
}

// RefineSimIdx refines the masks of the data graph g against pattern p
// until a local fixpoint: bit k of mask(v) is cleared if some pattern edge
// (u_k, u_j) has no g-successor edge from v (with a compatible label) whose
// target still has bit j. Vertices for which frozenAt holds keep their mask
// regardless (they are outer copies whose edges live on another fragment;
// their truth arrives via messages). Masks are addressed by dense vertex
// index and every adjacency hop lands on packed dense targets. With all=true
// every vertex seeds the worklist (PEval); otherwise only dirty and its
// in-neighbors do (IncEval). It reports the work spent and invokes onChange
// for every vertex whose mask shrank.
func RefineSimIdx(p, g *graph.Graph, mask func(int32) SimBits, setMask func(int32, SimBits), frozenAt func(int32) bool, dirty []int32, all bool, onChange func(int32)) int64 {
	var work int64
	plan := make([][]simPlanEdge, p.NumVertices()) // bit k is the pattern vertex at dense index k
	for k := range plan {
		for _, pe := range p.OutAt(int32(k)) {
			label := p.LabelName(pe.Label)
			e := simPlanEdge{j: int(pe.To), any: label == ""}
			e.lid, e.present = g.LabelID(label)
			plan[k] = append(plan[k], e)
		}
	}

	nv := g.NumVertices()
	inOff, inDense := g.InCSR()
	inWork := make([]bool, nv)
	var queue []int32
	push := func(v int32) {
		if !inWork[v] && !frozenAt(v) {
			inWork[v] = true
			queue = append(queue, v)
		}
	}
	if all {
		for v := int32(0); v < int32(nv); v++ {
			push(v)
		}
	} else {
		for _, v := range dirty {
			push(v)
			// a changed vertex can only invalidate its predecessors
			for _, e := range inDense[inOff[v]:inOff[v+1]] {
				push(e.To)
			}
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inWork[v] = false
		m := mask(v)
		if m == 0 {
			continue
		}
		nm := m
		for k := range plan {
			if nm&(1<<uint(k)) == 0 {
				continue
			}
			for _, pe := range plan[k] {
				ok := false
				for _, ge := range g.OutAt(v) {
					work++
					if (pe.any || (pe.present && ge.Label == pe.lid)) && mask(ge.To)&(1<<uint(pe.j)) != 0 {
						ok = true
						break
					}
				}
				if !ok {
					nm &^= 1 << uint(k)
					break
				}
			}
		}
		if nm != m {
			setMask(v, nm)
			onChange(v)
			for _, e := range inDense[inOff[v]:inOff[v+1]] {
				work++
				push(e.To)
			}
		}
	}
	return work
}
