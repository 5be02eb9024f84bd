// Package simulate demonstrates the paper's Simulation Theorem: GRAPE
// optimally simulates vertex-centric BSP systems — any Pregel program can
// run under the GRAPE engine with the same number of supersteps.
//
// The adapter wraps a vertexcentric.Program as a PIE program:
//
//   - the update parameter of a border node is the queue of vertex messages
//     addressed to it (aggregate = queue concatenation);
//   - PEval runs the vertex program's superstep 0 on the fragment's inner
//     vertices; IncEval delivers the queued messages and runs one vertex
//     superstep;
//   - Assemble collects the vertex values.
//
// One GRAPE superstep therefore corresponds to exactly one Pregel superstep,
// which tests verify (supersteps match between native and simulated runs).
//
// The adapter's consumable message queues live on the in-process bus only;
// it is not registered for the socket transport (see ARCHITECTURE.md on
// choosing a substrate).
package simulate

import (
	"context"
	"sort"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/vertexcentric"
)

// vcState is the per-worker state: vertex values, halted flags, and the
// local inbox for intra-fragment messages (which never touch the network,
// exactly like messages between co-located vertices in Pregel).
type vcState struct {
	values map[graph.ID]float64
	halted map[graph.ID]bool
	local  map[graph.ID][]float64
	step   int
}

// Adapter runs a vertexcentric.Program under the GRAPE engine.
type Adapter struct {
	// Prog is the vertex program to simulate.
	Prog vertexcentric.Program
}

// Query is unused by the adapter; the vertex program carries its own
// parameters.
type Query struct{}

// VCResult is the assembled vertex values.
type VCResult map[graph.ID]float64

// Name implements engine.Program.
func (a Adapter) Name() string { return "simulate/" + a.Prog.Name() }

// Spec implements engine.Program. The update parameter is the queue of
// messages pending for a node, and queues concatenate. An engine.Queue counts
// as changed whenever it is non-empty, so any pending queue keeps the fixpoint
// running — mirroring Pregel's "messages in flight" condition — and delivery
// consumes it.
func (a Adapter) Spec() engine.VarSpec[engine.Queue] {
	return engine.VarSpec[engine.Queue]{
		Default: nil,
		Agg: func(old, new engine.Queue) engine.Queue {
			if len(new) == 0 {
				return old
			}
			out := make(engine.Queue, 0, len(old)+len(new))
			out = append(out, old...)
			out = append(out, new...)
			return out
		},
	}
}

// PEval implements engine.Program: vertex superstep 0 over inner vertices.
func (a Adapter) PEval(_ Query, ctx *engine.Context[engine.Queue]) error {
	st := &vcState{
		values: make(map[graph.ID]float64),
		halted: make(map[graph.ID]bool),
		local:  make(map[graph.ID][]float64),
	}
	ctx.State = st
	a.step(ctx, st, true)
	return nil
}

// IncEval implements engine.Program: deliver queued messages, run one vertex
// superstep.
func (a Adapter) IncEval(_ Query, ctx *engine.Context[engine.Queue]) error {
	st := ctx.State.(*vcState)
	// Drain the routed queues into the local inbox, then clear them so
	// the queues do not re-trigger (consumption, not convergence). Consumable
	// messages route to their owner, which always hosts the target vertex, so
	// the dense UpdatedAt view covers every queue Updated would.
	g := ctx.Frag.G
	for _, i := range ctx.UpdatedAt() {
		q := ctx.GetAt(i)
		if len(q) > 0 && ctx.IsInnerAt(i) {
			id := g.IDAt(i)
			st.local[id] = append(st.local[id], q...)
		}
		ctx.SetLocalAt(i, nil)
	}
	a.step(ctx, st, false)
	return nil
}

// step runs one vertex-centric superstep over the fragment's inner vertices.
func (a Adapter) step(ctx *engine.Context[engine.Queue], st *vcState, init bool) {
	f := ctx.Frag
	g, inner := f.G, f.InnerIndices()
	inbox := st.local
	st.local = make(map[graph.ID][]float64)
	var work int64
	vctx := vertexcentric.NewRawCtx(st.step, g, &work, func(to graph.ID, val float64) {
		if f.IsInner(to) {
			st.local[to] = append(st.local[to], val)
			return
		}
		// Cross-fragment: append to the border node's queue; the engine
		// ships it and the owner drains it next superstep.
		q := ctx.Get(to)
		nq := make(engine.Queue, 0, len(q)+1)
		nq = append(nq, q...)
		nq = append(nq, val)
		ctx.Set(to, nq)
	})
	var parts []graph.ID
	if init {
		for _, i := range inner { // ascending by ID
			parts = append(parts, g.IDAt(i))
		}
	} else {
		seen := make(map[graph.ID]bool)
		for id := range inbox {
			if f.IsInner(id) {
				seen[id] = true
				parts = append(parts, id)
			}
		}
		for _, i := range inner {
			if id := g.IDAt(i); !st.halted[id] && !seen[id] {
				parts = append(parts, id)
			}
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	}
	for _, id := range parts {
		v := &vertexcentric.Vertex{ID: id, Value: st.values[id]}
		msgs := inbox[id]
		if init {
			a.Prog.Init(vctx, v)
		} else {
			if len(msgs) > 0 {
				// reactivation
			} else if st.halted[id] {
				continue
			}
			a.Prog.Compute(vctx, v, msgs)
		}
		st.values[id] = v.Value
		st.halted[id] = v.Halted()
	}
	ctx.AddWork(work)
	st.step++
	// BSP lockstep: if local messages are pending or some inner vertex is
	// still awake, the worker must run again next superstep even if no
	// cross-fragment messages arrive.
	if len(st.local) > 0 {
		ctx.KeepActive()
		return
	}
	for _, i := range inner {
		if !st.halted[g.IDAt(i)] {
			ctx.KeepActive()
			return
		}
	}
}

// Assemble implements engine.Program.
func (a Adapter) Assemble(_ Query, ctxs []*engine.Context[engine.Queue]) (VCResult, error) {
	out := make(VCResult)
	for _, ctx := range ctxs {
		st := ctx.State.(*vcState)
		for id, v := range st.values {
			out[id] = v
		}
	}
	return out, nil
}

// Run executes the vertex program under GRAPE.
func Run(ctx context.Context, g *graph.Graph, prog vertexcentric.Program, opts engine.Options) (VCResult, *metrics.Stats, error) {
	return engine.Run(ctx, g, Adapter{Prog: prog}, Query{}, opts)
}
