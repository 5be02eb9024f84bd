package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/trace"
)

// The paper defines IncEval over *updates M to G*: given Q, G, Q(G) and M,
// compute the change to the output. The demo exercises it with M = changed
// update parameters flowing between fragments, but the same machinery
// answers continuous queries over an evolving graph: keep the fragments and
// partial results of the last run, apply edge updates to the fragments,
// seed IncEval with the dirty nodes, and iterate the fixpoint again —
// without re-running PEval from scratch.
//
// A Session holds that retained state. Each update batch takes the cheapest
// execution path its program supports:
//
//   - a Repairer program patches its retained state coordinator-side for any
//     batch it accepts (sessions run on the in-process bus, so every fragment
//     is addressable) and seeds a follow-up IncEval fixpoint — for an
//     insert-only batch, the bounded incremental run of Example 1(d);
//   - locality-bounded programs (SubIso, TriCount) implement SessionPatcher:
//     the session retains their assembled answer and patches it exactly per
//     batch from the graphs before and after it;
//   - everything else — and any batch a repairer declines — falls back to a
//     reseed: re-partition the updated global graph and run the full
//     PEval/IncEval fixpoint again inside the same session. A reseed is the
//     from-scratch pipeline verbatim, so it is correct for every program;
//     the capability hooks above exist to beat it, not to replace it.
//
// Every path starts from the global graph spliced once per batch
// (graph.Splice: a new graph, the old one left intact), and the repair path
// also splices each fragment the batch touches, so kernels run the same CSR
// body in a session as in any other run.

// EdgeUpdate is one graph mutation: an edge insertion (or, equivalently for
// weighted graphs, a weight decrease when the edge already exists), or —
// with Del set — the deletion of one edge instance matching (From, To,
// Label). For deletions W is ignored on input; the session rewrites it to
// the removed instance's weight before the update reaches program hooks, so
// repairers can reason about the exact edge that disappeared.
type EdgeUpdate struct {
	From, To graph.ID
	W        float64
	Label    string
	Del      bool
}

// UpdateValidator is optionally implemented by programs to reject invalid
// updates *before* the engine mutates any graph state. RepairBatch runs after
// the batch has been spliced in, so a rejection there necessarily leaves the
// graph changed and the session broken; checks that need no engine state
// (e.g. SSSP's negative-weight rule) belong here, where a failure costs
// nothing.
type UpdateValidator[Q any] interface {
	ValidateUpdate(q Q, upd EdgeUpdate) error
}

// BorderPublisher is optionally implemented by programs whose node variables
// do not mirror every node's current value (e.g. CC keeps labels in a
// union-find and only materializes border variables). When a graph update
// turns a node into a border node, the session asks its owner to publish the
// node's current value so the new copy holders receive it; programs without
// this method get Context.touch, which re-ships the stored variable.
type BorderPublisher[Q, V any] interface {
	PublishBorder(q Q, ctx *Context[V], id graph.ID)
}

// Repairer is implemented by PIE programs that bring their retained session
// state up to date after a batch of insertions and deletions, instead of
// paying a full reseed. The session applies all structural mutations
// (fragment and global graphs, border bookkeeping) first, then calls
// RepairBatch with coordinator-side access to every fragment's context; the
// returned per-worker dirty sets seed a follow-up IncEval fixpoint (an empty
// map means the repair is already exact). CanRepair is consulted before
// anything is mutated: returning false sends the batch down the reseed path
// (e.g. Sim repairs deletions, whose masks only shrink, but must reseed when
// the batch also inserts).
type Repairer[Q, V any] interface {
	CanRepair(q Q, batch []EdgeUpdate) bool
	RepairBatch(q Q, sc *RepairScope[V], batch []EdgeUpdate) (map[int][]graph.ID, error)
}

// SessionPatcher is implemented by locality-bounded programs (SubIso,
// TriCount) whose sessions retain the assembled answer and patch it exactly
// per batch instead of re-running any fixpoint. SessionQuery may widen the
// user's query for the initial run (SubIso drops MaxMatches: a truncated
// match list cannot be patched); PatchResult narrows the retained state back
// to the user's answer. ApplyPatch receives the whole batch — a deletion's W
// already rewritten to the removed instance's weight — with the global graph
// before it (old) and after it (g), with the same dense indices,
// and both readable, since a session never adds vertices.
type SessionPatcher[Q, R any] interface {
	SessionQuery(q Q) Q
	InitPatch(q Q, g *graph.Graph, res R) (any, error)
	ApplyPatch(q Q, old, g *graph.Graph, state any, batch []EdgeUpdate) (any, error)
	PatchResult(q Q, state any) (R, error)
}

// RepairScope is a Repairer's coordinator-side view of the session:
// the global graph, every fragment's context, and the value/invalidation
// plumbing that keeps the per-host variables and the coordinator's fold in
// step. It is only valid for the duration of one RepairBatch call.
type RepairScope[V any] struct {
	layout *partition.Layout
	ctxs   []*Context[V]
	fold   *foldState[V]
}

// Global returns the global (whole) graph, with the batch already spliced in.
func (sc *RepairScope[V]) Global() *graph.Graph { return sc.layout.Asg.G }

// Workers returns the number of fragments.
func (sc *RepairScope[V]) Workers() int { return len(sc.ctxs) }

// Owner returns the worker owning id.
func (sc *RepairScope[V]) Owner(id graph.ID) int { return sc.layout.Asg.Owner(id) }

// Ctx returns worker w's retained context (fragment, variables, program
// state).
func (sc *RepairScope[V]) Ctx(w int) *Context[V] { return sc.ctxs[w] }

// Value returns the owner's view of id's variable — the authoritative
// converged value.
func (sc *RepairScope[V]) Value(id graph.ID) V {
	return sc.ctxs[sc.layout.Asg.Owner(id)].Get(id)
}

// Invalidate erases id's variable at every hosting fragment and drops the
// coordinator's folded baseline, so a follow-up fixpoint re-derives the
// value from scratch (or leaves it at the default if nothing reaches it).
func (sc *RepairScope[V]) Invalidate(id graph.ID) {
	s, border := sc.layout.SlotOf(id)
	if !border {
		sc.ctxs[sc.layout.Asg.Owner(id)].clearVar(id)
		return
	}
	for _, h := range sc.layout.SlotHosts(s) {
		sc.ctxs[h.Frag].clearVarAt(h.At)
	}
	sc.fold.forget(s)
}

// ForceValue overwrites id's variable at every hosting fragment and the
// coordinator's folded baseline, bypassing aggregation — for repaired values
// that may sit above the old ones in the order (e.g. CC labels after a
// component split).
func (sc *RepairScope[V]) ForceValue(id graph.ID, v V) {
	s, border := sc.layout.SlotOf(id)
	if !border {
		sc.ctxs[sc.layout.Asg.Owner(id)].SetLocal(id, v)
		return
	}
	for _, h := range sc.layout.SlotHosts(s) {
		sc.ctxs[h.Frag].SetLocalAt(h.At, v)
	}
	sc.fold.force(s, v)
}

// Session retains a query's distributed state across graph updates.
type Session[Q, V, R any] struct {
	prog Program[Q, V, R]
	// q is the user's query; iq the query the fixpoints actually run —
	// identical unless a SessionPatcher widened it (see SessionQuery).
	q  Q
	iq Q
	// g is the current global graph: the one NewSession was given, with
	// every accepted batch spliced in. The layout, while the session keeps
	// one, cuts it (layout.Asg.G is g).
	g      *graph.Graph
	layout *partition.Layout
	ctxs   []*Context[V]
	opts   Options
	spec   vars[V]
	// fold retains the coordinator's sharded border state between runs.
	fold *foldState[V]
	// patcher/patch carry SessionPatcher mode: the retained patched answer
	// replaces the fixpoint machinery after the initial run, so such a
	// session lets go of its layout, contexts and fold then, and keeps only
	// g and patch.
	patcher SessionPatcher[Q, R]
	patch   any
	// broken marks a session whose incremental fixpoint did not complete
	// (cancelled or errored mid-Update): the retained fold and fragment
	// state have diverged, so later Updates would return silently stale
	// answers. Once set, Update and Result fail loudly instead.
	broken bool
}

// ErrSessionBroken is returned (wrapped) by Update and Result after an
// incremental fixpoint was cancelled or failed partway: the retained state
// is not trustworthy. Start a fresh session over Graph(), which holds the
// whole batch.
var ErrSessionBroken = errors.New("session state diverged by an aborted update; start a new session")

// NewSession runs the initial PEval/IncEval fixpoint and retains the state
// for incremental updates. Every registered program can run in a session:
// programs without incremental capabilities fall back to reseeding on
// Update, which re-runs the from-scratch pipeline on the mutated graph
// inside the same session. The context bounds the initial fixpoint only;
// each Update call carries its own. The session owns g from then on: g
// itself never changes, each batch yields a new graph, and Graph returns the
// current one.
func NewSession[Q, V, R any](ctx context.Context, g *graph.Graph, prog Program[Q, V, R], q Q, opts Options) (*Session[Q, V, R], R, *metrics.Stats, error) {
	var zero R
	spec, err := declare(prog.Name(), prog.Spec())
	if err != nil {
		return nil, zero, nil, err
	}
	if !g.Directed() {
		return nil, zero, nil, fmt.Errorf("engine: sessions support directed graphs only (undirected cut edges live on both fragments)")
	}
	if opts.Transport != nil {
		return nil, zero, nil, fmt.Errorf("engine: sessions run on the in-process bus only (graph updates mutate shared fragments)")
	}
	if opts.Recover {
		return nil, zero, nil, fmt.Errorf("engine: sessions do not support Options.Recover (a replay from PEval cannot rebuild a resumed session context)")
	}
	opts = opts.withDefaults()
	patcher, _ := any(prog).(SessionPatcher[Q, R])
	if opts.ExpandHops > 0 && patcher == nil {
		return nil, zero, nil, fmt.Errorf("engine: %s: expanded fragments replicate edges across workers, which incremental updates cannot keep consistent; only SessionPatcher programs run sessions with ExpandHops > 0", prog.Name())
	}
	layout, err := BuildLayout(g, opts)
	if err != nil {
		return nil, zero, nil, err
	}
	s := &Session[Q, V, R]{
		prog:    prog,
		q:       q,
		iq:      q,
		g:       g,
		layout:  layout,
		opts:    opts,
		spec:    spec,
		patcher: patcher,
	}
	if patcher != nil {
		s.iq = patcher.SessionQuery(q)
	}
	s.fold = newFoldState(s.spec, layout)
	res, stats, err := s.run(ctx, nil)
	if err != nil {
		return nil, zero, stats, err
	}
	if patcher != nil {
		st, err := patcher.InitPatch(q, g, res)
		if err != nil {
			return nil, zero, stats, err
		}
		s.patch = st
		s.layout, s.ctxs, s.fold = nil, nil, nil // a patched answer never reads them
		if res, err = patcher.PatchResult(q, st); err != nil {
			return nil, zero, stats, err
		}
	}
	return s, res, stats, nil
}

// Broken reports whether an aborted or failed incremental fixpoint has
// diverged the session's retained state (see ErrSessionBroken). A rejected
// update batch — caught by the pre-mutation validation — does not break the
// session; callers like the serving layer use this to tell "bad input,
// nothing happened" from "state diverged, drop the session".
func (s *Session[Q, V, R]) Broken() bool { return s.broken }

// Graph returns the session's current global graph: the graph
// NewSession was given with every accepted batch spliced in — a batch that
// broke the session included.
func (s *Session[Q, V, R]) Graph() *graph.Graph { return s.g }

// Layout returns the session's layout while its fragments hold Graph(): the
// cut NewSession (or the last reseed) made, with every batch since spliced
// into its fragments. It is nil for a SessionPatcher session, which keeps no
// fragments past the initial run, and for a broken one. The layout changes
// in place at the next Update; callers must not run on it concurrently with
// one.
func (s *Session[Q, V, R]) Layout() *partition.Layout {
	if s.broken {
		return nil
	}
	return s.layout
}

// Result re-assembles the current answer without recomputation.
func (s *Session[Q, V, R]) Result() (R, error) {
	if s.broken {
		var zero R
		return zero, fmt.Errorf("engine: %s: %w", s.prog.Name(), ErrSessionBroken)
	}
	if s.patcher != nil {
		return s.patcher.PatchResult(s.q, s.patch)
	}
	return s.prog.Assemble(s.q, s.ctxs)
}

// Update applies a batch of mixed edge insertions and deletions and brings
// the retained answer up to date — the paper's Q(G ⊕ M) = Q(G) ⊕ ΔO. The
// whole batch is validated before anything changes, so a rejected batch
// leaves the session (and the graph) untouched; an accepted one is spliced
// into the global graph whole, in one graph.Splice, before any path runs. The
// execution path depends on the program's capabilities: exact answer patching
// for a SessionPatcher, coordinator-side repair plus follow-up fixpoint for a
// Repairer that accepts the batch, and a full reseed of the updated graph for
// everything else. A cancelled ctx aborts an incremental fixpoint at the next
// superstep barrier; the batch is in Graph() by then and the retained state
// has diverged, so the session marks itself broken — further Update/Result
// calls fail with ErrSessionBroken instead of returning silently stale
// answers.
func (s *Session[Q, V, R]) Update(ctx context.Context, updates []EdgeUpdate) (R, *metrics.Stats, error) {
	var zero R
	if s.broken {
		return zero, nil, fmt.Errorf("engine: %s: %w", s.prog.Name(), ErrSessionBroken)
	}
	if err := validateBatch(s.g, s.prog, s.q, updates); err != nil {
		return zero, nil, err
	}
	if rec := trace.FromContext(ctx); rec != nil {
		rec.Event("session-update", fmt.Sprintf("%s: %d edge updates", s.prog.Name(), len(updates)))
	}
	// Deletions get W rewritten to the removed instance's weight; work on a
	// copy so the caller's batch stays untouched.
	ups := make([]EdgeUpdate, len(updates))
	copy(ups, updates)
	old := s.g
	g, err := SpliceBatch(old, ups)
	if err != nil {
		return zero, nil, fmt.Errorf("engine: %s: %w", s.prog.Name(), err)
	}
	s.g = g
	if s.patcher != nil {
		return s.patchBatch(old, ups)
	}
	s.layout.Asg.G = g
	if rep, ok := any(s.prog).(Repairer[Q, V]); ok && rep.CanRepair(s.q, ups) {
		return s.repair(ctx, rep, ups)
	}
	return s.reseed(ctx)
}

// validateBatch rejects a bad batch before any state changes: unknown
// endpoints, program-specific rules (UpdateValidator), and deletions of
// edges that do not exist — counted against a per-batch multiset, so a
// batch may delete an edge it inserted earlier, and two deletions of the
// same edge need two live instances. Edges are counted on g's CSR by dense
// index. It checks everything SpliceBatch would refuse. Session.Update and
// Entry.Validate both run it, so a batch the serving layer accepts is one
// the session accepts.
func validateBatch[Q any](g *graph.Graph, prog any, q Q, updates []EdgeUpdate) error {
	validator, hasValidator := prog.(UpdateValidator[Q])
	type ekey struct {
		from, to int32
		label    string
	}
	counts := make(map[ekey]int)
	liveCount := func(k ekey) int {
		if c, ok := counts[k]; ok {
			return c
		}
		c := 0
		if l, ok := g.LabelID(k.label); ok {
			for _, e := range g.OutAt(k.from) {
				if e.To == k.to && e.Label == l {
					c++
				}
			}
		}
		counts[k] = c
		return c
	}
	for _, u := range updates {
		from, okFrom := g.Index(u.From)
		to, okTo := g.Index(u.To)
		if !okFrom || !okTo {
			return fmt.Errorf("engine: update %v references unknown vertices (vertex additions are not supported)", u)
		}
		if hasValidator {
			if err := validator.ValidateUpdate(q, u); err != nil {
				return fmt.Errorf("engine: rejecting %v: %w", u, err)
			}
		}
		k := ekey{from, to, u.Label}
		if u.Del {
			if liveCount(k) <= 0 {
				return fmt.Errorf("engine: deleting %v: no matching edge (%d->%d label %q)", u, u.From, u.To, u.Label)
			}
			counts[k]--
		} else {
			counts[k] = liveCount(k) + 1
		}
	}
	return nil
}

// SpliceBatch returns g with the whole batch in it, built in one
// graph.Splice (g itself stays intact), and rewrites each deletion's W to the
// weight of the instance it removed. A session splices every accepted batch
// into its global graph through here, and journal replay splices every
// journaled batch: the same batch yields the same graph on both paths.
// Validate the batch first (Entry.Validate): Splice refuses only what
// validation rejects.
func SpliceBatch(g *graph.Graph, ups []EdgeUpdate) (*graph.Graph, error) {
	var b graph.Batch
	for _, u := range ups {
		if u.Del {
			b.RemoveEdge(u.From, u.To, u.Label)
		} else {
			b.AddEdge(u.From, u.To, u.W, u.Label)
		}
	}
	ng, removed, err := graph.Splice(g, &b)
	if err != nil {
		return nil, err
	}
	for i := range ups {
		if ups[i].Del {
			ups[i].W, removed = removed[0], removed[1:]
		}
	}
	return ng, nil
}

// splice brings every fragment that stores a batch edge — the owner of its
// source — up to date in one graph.Splice: an outer copy, with the global
// graph's label and properties, for each inserted target it does not host
// yet, then its edges in batch order. The border bookkeeping for the new copies
// follows in applyInsert.
func (s *Session[Q, V, R]) splice(ups []EdgeUpdate) error {
	g := s.g
	batches := make([]*graph.Batch, len(s.layout.Fragments))
	copies := make(map[[2]int64]bool) // (fragment, vertex) copies the batches add
	for _, u := range ups {
		w := s.layout.Asg.Owner(u.From)
		if batches[w] == nil {
			batches[w] = new(graph.Batch)
		}
		b := batches[w]
		if u.Del {
			b.RemoveEdge(u.From, u.To, u.Label)
			continue
		}
		if k := [2]int64{int64(w), int64(u.To)}; !copies[k] && !s.hosts(w, u.To) {
			copies[k] = true
			b.AddVertex(u.To, g.Label(u.To), g.Props(u.To))
		}
		b.AddEdge(u.From, u.To, u.W, u.Label)
	}
	for w, b := range batches {
		if b == nil {
			continue
		}
		f := s.layout.Fragments[w]
		ng, _, err := graph.Splice(f.G, b)
		if err != nil {
			return fmt.Errorf("engine: fragment %d: %w", w, err)
		}
		f.G = ng
	}
	return nil
}

// hosts reports whether fragment w's border bookkeeping already covers id: w
// owns it, or holds an outer copy of it.
func (s *Session[Q, V, R]) hosts(w int, id graph.ID) bool {
	if s.layout.Asg.Owner(id) == w {
		return true
	}
	_, outer := s.layout.Fragments[w].BorderPos(id) // every outer copy is on the border
	return outer
}

// applyInsert does the rest of one insertion, after splice: when its target
// is a new outer copy on the owner of its source, it extends the border on
// both sides and brings the copy up to date with the coordinator's folded
// value, so no historic routing is missed. Workers whose queued values must
// flush are marked in dirtyByWorker (with no dirty nodes of their own).
func (s *Session[Q, V, R]) applyInsert(u EdgeUpdate, dirtyByWorker map[int][]graph.ID) {
	w := s.layout.Asg.Owner(u.From)
	if !s.hosts(w, u.To) {
		owner, first := s.layout.AddHost(u.To, w)
		s.ctxs[w].syncBorder()
		if gv, ok := s.fold.lookup(u.To); ok {
			s.ctxs[w].SetLocal(u.To, s.spec.Agg(s.ctxs[w].Get(u.To), gv))
		}
		if first {
			s.ctxs[owner].syncBorder()
		}
		// the owner's current value never shipped if the node was not
		// border before; force it onto the wire
		if pub, ok := any(s.prog).(BorderPublisher[Q, V]); ok {
			pub.PublishBorder(s.q, s.ctxs[owner], u.To)
		} else {
			s.ctxs[owner].touch(u.To)
		}
		if _, ok := dirtyByWorker[owner]; !ok {
			dirtyByWorker[owner] = nil
		}
	}
	if _, ok := dirtyByWorker[w]; !ok {
		dirtyByWorker[w] = nil
	}
}

// repair is the Repairer path: splice the fragments and extend the border,
// let the program patch its retained state coordinator-side, and run a
// follow-up fixpoint seeded with whatever the repair dirtied. A failure after
// the splice leaves the batch in the graph but not in the retained state, so
// it breaks the session.
func (s *Session[Q, V, R]) repair(ctx context.Context, rep Repairer[Q, V], ups []EdgeUpdate) (R, *metrics.Stats, error) {
	var zero R
	if err := s.splice(ups); err != nil {
		s.broken = true
		return zero, nil, err
	}
	dirtyByWorker := make(map[int][]graph.ID)
	for _, u := range ups {
		if !u.Del {
			s.applyInsert(u, dirtyByWorker)
		}
	}
	repDirty, err := rep.RepairBatch(s.q, &RepairScope[V]{layout: s.layout, ctxs: s.ctxs, fold: s.fold}, ups)
	if err != nil {
		s.broken = true
		return zero, nil, fmt.Errorf("engine: %s: repairing batch: %w", s.prog.Name(), err)
	}
	for w, ids := range repDirty {
		dirtyByWorker[w] = append(dirtyByWorker[w], ids...)
	}
	return s.run(ctx, dirtyByWorker)
}

// reseed is the universal fallback: rebuild the layout from the spliced
// global graph and run the from-scratch PEval/IncEval fixpoint inside the
// session — the exact pipeline Run would execute on that graph. Old
// fragments, contexts and fold state are discarded wholesale.
func (s *Session[Q, V, R]) reseed(ctx context.Context) (R, *metrics.Stats, error) {
	var zero R
	layout, err := BuildLayout(s.g, s.opts)
	if err != nil {
		s.broken = true
		return zero, nil, err
	}
	s.layout = layout
	s.fold = newFoldState(s.spec, layout)
	return s.run(ctx, nil)
}

// patchBatch is the SessionPatcher path: hand the patcher the global graphs
// before and after the batch, and the batch, and retain the patched state. No
// fixpoint runs, and no fragment is read: the session let them go after the
// initial run.
func (s *Session[Q, V, R]) patchBatch(old *graph.Graph, ups []EdgeUpdate) (R, *metrics.Stats, error) {
	var zero R
	start := time.Now()
	st, err := s.patcher.ApplyPatch(s.q, old, s.g, s.patch, ups)
	if err != nil {
		s.broken = true
		return zero, nil, fmt.Errorf("engine: %s: patching a batch of %d updates: %w", s.prog.Name(), len(ups), err)
	}
	s.patch = st
	stats := &metrics.Stats{Workers: s.opts.Workers, WallTime: time.Since(start)}
	res, err := s.patcher.PatchResult(s.q, s.patch)
	if err != nil {
		s.broken = true
		return zero, stats, err
	}
	return res, stats, nil
}

// run is one fixpoint of the session on the in-process bus. A nil dirty is
// the from-scratch pipeline (fresh contexts, PEval everywhere); otherwise the
// retained contexts resume with IncEval on exactly the dirtied workers. A
// failed resume or reseed leaves the fold holding values never shipped to all
// hosts, and re-running cannot recover them (only improvements over the
// fold's state are routed), so it breaks the session.
func (s *Session[Q, V, R]) run(ctx context.Context, dirty map[int][]graph.ID) (R, *metrics.Stats, error) {
	if dirty == nil {
		s.ctxs = freshContexts(s.layout, s.spec)
	}
	res, stats, err := fixpoint(ctx, s.layout, s.prog, s.iq, s.opts, newBusSubstrate(s.prog, s.iq, s.spec, s.opts, s.ctxs), s.fold, dirty)
	if err != nil {
		s.broken = true
	}
	return res, stats, err
}
