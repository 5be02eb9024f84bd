package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// The fold as it stood before border slots, kept here — and only here — as
// the ground truth the positional fold is held to: update parameters named by
// vertex ID, the coordinator's state in map[ID]V shards, a record per report
// that moved a value, settle sorting a shard's records by (node, worker) and
// keeping the last of each node, merge interleaving the shards by node ID, and
// buildRoute finding a node's hosts by looking the ID up. Its hosts come from
// the fragments' graphs (whoever has the vertex hosts it), not from the
// layout's slot index, so the index is checked, not trusted.

// idUpdate is one reported change named by vertex ID.
type idUpdate[V any] struct {
	ID  graph.ID
	Val V
}

type refRec[V any] struct {
	id     graph.ID
	val    V
	winner int
}

type refFold[V any] struct {
	spec    VarSpec[V]
	layout  *partition.Layout
	global  []map[graph.ID]V
	changed [][]refRec[V]
	merged  []refRec[V]
}

func newRefFold[V any](spec VarSpec[V], layout *partition.Layout) *refFold[V] {
	n := max(len(layout.Fragments), 1)
	r := &refFold[V]{spec: spec, layout: layout, global: make([]map[graph.ID]V, n), changed: make([][]refRec[V], n)}
	for s := range r.global {
		r.global[s] = make(map[graph.ID]V)
	}
	return r
}

func (r *refFold[V]) shardOf(id graph.ID) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15) % uint64(len(r.global)))
}

// fold takes every worker's report by ID (nil: not scheduled).
func (r *refFold[V]) fold(replies [][]idUpdate[V]) error {
	for s := range r.changed {
		r.changed[s] = r.changed[s][:0]
	}
	for w, rep := range replies {
		for _, u := range rep {
			if err := r.foldOne(r.shardOf(u.ID), w, u); err != nil {
				return err
			}
		}
	}
	for s := range r.changed {
		r.settle(s)
	}
	r.merge()
	return nil
}

func (r *refFold[V]) foldOne(s, w int, u idUpdate[V]) error {
	if r.spec.Consume {
		r.changed[s] = append(r.changed[s], refRec[V]{id: u.ID, val: u.Val, winner: w})
		return nil
	}
	old, has := r.global[s][u.ID]
	if !has {
		old = r.spec.Default
	}
	merged := r.spec.Agg(old, u.Val)
	if r.spec.Eq(old, merged) {
		return nil
	}
	if r.spec.Less != nil && has && !r.spec.Less(merged, old) {
		return fmt.Errorf("engine: node %d: %v -> %v: %w", u.ID, old, merged, ErrNotMonotonic)
	}
	r.global[s][u.ID] = merged
	r.changed[s] = append(r.changed[s], refRec[V]{id: u.ID, val: merged, winner: w})
	return nil
}

func (r *refFold[V]) settle(s int) {
	recs := r.changed[s]
	slices.SortFunc(recs, func(a, b refRec[V]) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.winner, b.winner)
	})
	out := recs[:0]
	for _, rec := range recs {
		n := len(out)
		again := n > 0 && out[n-1].id == rec.id
		switch {
		case again && r.spec.Consume:
			out[n-1].val = r.spec.Agg(out[n-1].val, rec.val)
		case again:
			out[n-1] = rec
		case r.spec.Consume:
			rec.val = r.spec.Agg(r.spec.Default, rec.val)
			fallthrough
		default:
			out = append(out, rec)
		}
	}
	r.changed[s] = out
}

func (r *refFold[V]) merge() {
	r.merged = r.merged[:0]
	heads := make([]int, len(r.changed))
	for {
		best := -1
		for s, recs := range r.changed {
			if h := heads[s]; h < len(recs) && (best < 0 || recs[h].id < r.changed[best][heads[best]].id) {
				best = s
			}
		}
		if best < 0 {
			return
		}
		r.merged = append(r.merged, r.changed[best][heads[best]])
		heads[best]++
	}
}

// hosts lists the fragments whose graph has id, ascending.
func (r *refFold[V]) hosts(id graph.ID) []int {
	var hs []int
	for w, f := range r.layout.Fragments {
		if f.G.Has(id) {
			hs = append(hs, w)
		}
	}
	return hs
}

func (r *refFold[V]) buildRoute() [][]idUpdate[V] {
	route := make([][]idUpdate[V], len(r.layout.Fragments))
	for _, rec := range r.merged {
		if r.spec.Consume {
			o := r.layout.Asg.Owner(rec.id)
			route[o] = append(route[o], idUpdate[V]{ID: rec.id, Val: rec.val})
			continue
		}
		for _, h := range r.hosts(rec.id) {
			if h != rec.winner {
				route[h] = append(route[h], idUpdate[V]{ID: rec.id, Val: rec.val})
			}
		}
	}
	return route
}

// foldPair is the fold under test beside the reference, over one layout.
type foldPair[V any] struct {
	layout *partition.Layout
	fold   *foldState[V]
	ref    *refFold[V]
}

func newFoldPair[V any](spec VarSpec[V], layout *partition.Layout) *foldPair[V] {
	return &foldPair[V]{layout: layout, fold: newFoldState(spec, layout), ref: newRefFold(spec, layout)}
}

// step folds and routes one superstep's replies on both sides and requires
// the same outcome element for element: the same error, or the same changes —
// (node, value, winner), in the same order — and the same batch for every
// worker. It returns the batches, as the fold under test routed them, and
// whether the superstep failed.
func (p *foldPair[V]) step(t testing.TB, what string, replies []*workerReply[V]) ([][]update[V], bool) {
	t.Helper()
	named := make([][]idUpdate[V], len(replies))
	for w, rep := range replies {
		if rep == nil {
			continue
		}
		f := p.layout.Fragments[w]
		for _, u := range rep.changes {
			named[w] = append(named[w], idUpdate[V]{ID: f.G.IDAt(f.BorderIndices()[u.at]), Val: u.val})
		}
	}
	refErr := p.ref.fold(named)
	err := p.fold.fold(replies)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: fold failed with %v, the reference with %v", what, err, refErr)
		}
		return nil, true
	}
	var moved []refRec[V]
	for _, s := range p.fold.moved {
		moved = append(moved, refRec[V]{id: p.layout.SlotID(s), val: p.fold.val[s], winner: int(p.fold.winner[s])})
	}
	if len(moved)+len(p.ref.merged) > 0 && !reflect.DeepEqual(moved, p.ref.merged) {
		t.Fatalf("%s: folded changes differ from the reference:\n got %v\nwant %v", what, moved, p.ref.merged)
	}
	route, scheduled := p.fold.buildRoute()
	want, wantScheduled := p.ref.buildRoute(), 0
	for w, batch := range route {
		var got []idUpdate[V]
		ids := p.layout.Fragments[w].G.Vertices()
		for _, u := range batch {
			got = append(got, idUpdate[V]{ID: ids[u.at], Val: u.val})
		}
		if len(want[w]) > 0 {
			wantScheduled++
		}
		if len(got)+len(want[w]) > 0 && !reflect.DeepEqual(got, want[w]) {
			t.Fatalf("%s: batch for worker %d differs from the reference:\n got %v\nwant %v", what, w, got, want[w])
		}
	}
	if scheduled != wantScheduled {
		t.Fatalf("%s: %d workers scheduled, the reference schedules %d", what, scheduled, wantScheduled)
	}
	return route, false
}

// auditSubstrate records what crosses a substrate in both directions: every
// reply's changes and every command's batch, copied (both are reused).
type auditSubstrate[V any] struct {
	substrate[V]
	replies  map[int][]*workerReply[V] // superstep -> worker -> reply
	commands map[int][][]update[V]     // superstep -> worker -> batch
	n        int
}

func (a *auditSubstrate[V]) command(w, step int, cmd workerCmd[V]) {
	if a.commands[step] == nil {
		a.commands[step] = make([][]update[V], a.n)
	}
	a.commands[step][w] = slices.Clone(cmd.updates)
	a.substrate.command(w, step, cmd)
}

func (a *auditSubstrate[V]) reply(env mpi.Envelope) (workerReply[V], error) {
	rep, err := a.substrate.reply(env)
	if err == nil {
		if a.replies[env.Step] == nil {
			a.replies[env.Step] = make([]*workerReply[V], a.n)
		}
		a.replies[env.Step][env.From] = &workerReply[V]{changes: slices.Clone(rep.changes)}
	}
	return rep, err
}

// AuditedRun is RunOnLayout on the in-process bus with every superstep's fold
// audited: the replies the run's workers sent are folded again, by a fresh
// fold and by the reference, which must agree with each other (foldPair.step)
// and with the batches the run went on to send. The external test package
// calls it with the query classes this package cannot import.
func AuditedRun[Q, V, R any](t testing.TB, layout *partition.Layout, prog Program[Q, V, R], q Q, opts Options) (R, error) {
	t.Helper()
	opts = opts.withDefaults()
	spec, n := prog.Spec(), len(layout.Fragments)
	audit := &auditSubstrate[V]{
		substrate: newBusSubstrate(prog, q, opts, freshContexts(layout, spec)),
		replies:   map[int][]*workerReply[V]{}, commands: map[int][][]update[V]{}, n: n,
	}
	res, stats, err := fixpoint(context.Background(), layout, prog, q, opts, audit, newFoldState(spec, layout), nil)
	pair := newFoldPair(spec, layout)
	for step := 1; step <= stats.Supersteps; step++ {
		what := fmt.Sprintf("%s superstep %d", prog.Name(), step)
		route, failed := pair.step(t, what, audit.replies[step])
		if failed {
			if err == nil {
				t.Fatalf("%s: the audit's fold failed, the run's did not", what)
			}
			break
		}
		sent := audit.commands[step+1]
		for w, batch := range route {
			if sent == nil && len(batch) == 0 {
				continue
			}
			if sent == nil || len(batch)+len(sent[w]) > 0 && !reflect.DeepEqual(batch, sent[w]) {
				t.Fatalf("%s: the run sent worker %d a different batch next superstep than its replies fold to", what, w)
			}
		}
	}
	return res, err
}

func minSpec() VarSpec[float64] {
	return VarSpec[float64]{
		Default: math.Inf(1),
		Agg:     math.Min,
		Eq:      func(a, b float64) bool { return a == b },
		Less:    func(a, b float64) bool { return a < b },
	}
}

// lastSpec takes whatever is reported last, so the monotonicity check has
// something to refuse.
func lastSpec() VarSpec[float64] {
	s := minSpec()
	s.Agg = func(old, new float64) float64 { return new }
	return s
}

// queueSpec is a queue of report values: Agg appends, so the fold order shows.
func queueSpec() VarSpec[[]int] {
	return VarSpec[[]int]{
		Agg:     func(a, b []int) []int { return append(slices.Clone(a), b...) },
		Eq:      func(a, b []int) bool { return slices.Equal(a, b) },
		Consume: true,
	}
}

// randomReplies draws one superstep's reports: every worker but the unlucky
// reports a random subset of its border positions, ascending as a flush is.
func randomReplies[V any](rng *rand.Rand, layout *partition.Layout, density float64, val func(w int) V) []*workerReply[V] {
	replies := make([]*workerReply[V], len(layout.Fragments))
	for w, f := range layout.Fragments {
		if rng.Intn(5) == 0 {
			continue // not scheduled this superstep
		}
		replies[w] = &workerReply[V]{}
		for p := range f.BorderIndices() {
			if rng.Float64() < density {
				replies[w].changes = append(replies[w].changes, update[V]{at: int32(p), val: val(w)})
			}
		}
	}
	return replies
}

// randomSupersteps holds the fold to the reference over three supersteps of
// random reports on layout (the later ones meet retained values), for a
// convergent min variable, a last-writer variable the order check refuses,
// and a queue variable whose aggregate is order-sensitive.
func randomSupersteps(t testing.TB, what string, layout *partition.Layout, seed int64) {
	t.Helper()
	for _, density := range []float64{0.05, 0.9} {
		rng := rand.New(rand.NewSource(seed))
		small := func(int) float64 { return float64(rng.Intn(8)) }
		pMin, pLast, pQueue := newFoldPair(minSpec(), layout), newFoldPair(lastSpec(), layout), newFoldPair(queueSpec(), layout)
		lastFailed := false
		for step := 0; step < 3; step++ {
			what := fmt.Sprintf("%s, density %g, step %d", what, density, step)
			reps := randomReplies(rng, layout, density, small)
			pMin.step(t, what+", min", reps)
			if !lastFailed {
				_, lastFailed = pLast.step(t, what+", last writer", reps)
			}
			pQueue.step(t, what+", queue", randomReplies(rng, layout, density, func(w int) []int { return []int{w} }))
		}
	}
}

// TestFoldMatchesReference: seeded random reply sets over plain and expanded
// cuts of three strategies.
func TestFoldMatchesReference(t *testing.T) {
	g := gen.Random(300, 1200, 7)
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.Range{}, partition.Fennel{}} {
		for _, hops := range []int{0, 1} {
			layout, err := BuildLayout(g, Options{Workers: 5, Strategy: strat, ExpandHops: hops})
			if err != nil {
				t.Fatal(err)
			}
			randomSupersteps(t, fmt.Sprintf("%s hops %d", strat.Name(), hops), layout, int64(hops)+1)
		}
	}
}

// TestFoldMatchesReferenceOnGrownLayout: a session whose updates keep making
// new outer copies appends slots, border positions and hosts; on the layout it
// leaves behind, changes still come out in node-ID order (restored, there) and
// reach the hosts the fragments' graphs say they have.
func TestFoldMatchesReferenceOnGrownLayout(t *testing.T) {
	g := gen.Random(120, 240, 11)
	s, _, _, err := NewSession(context.Background(), g, sessionProg{}, cdQuery{}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	cut := s.layout.CutSlots()
	for round := 0; round < 6; round++ {
		var batch []EdgeUpdate
		for len(batch) < 8 {
			if u, v := graph.ID(rng.Intn(120)), graph.ID(rng.Intn(120)); u != v {
				batch = append(batch, EdgeUpdate{From: u, To: v, W: float64(2 + rng.Intn(60))})
			}
		}
		if _, _, err := s.Update(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if s.layout.Slots() == cut {
		t.Fatal("fixture: no update made a new border vertex")
	}
	randomSupersteps(t, "grown layout", s.layout, 5)
	for slot := int32(0); int(slot) < s.layout.Slots(); slot++ {
		id := s.layout.SlotID(slot)
		if got, ok := s.layout.SlotOf(id); !ok || got != slot {
			t.Fatalf("slot %d stands for vertex %d, whose slot is %d (%v)", slot, id, got, ok)
		}
	}
}

// TestFoldAuditedRuns: whole runs of this package's programs, one of them
// refused by the monotonicity check, with every superstep audited.
func TestFoldAuditedRuns(t *testing.T) {
	g := gen.Random(80, 320, 5)
	for _, hops := range []int{0, 1} {
		layout, err := BuildLayout(g, Options{Workers: 4, ExpandHops: hops})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AuditedRun(t, layout, countdown{}, cdQuery{}, Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := AuditedRun(t, layout, countdown{breakOrder: true}, cdQuery{}, Options{}); !errors.Is(err, ErrNotMonotonic) {
			t.Fatalf("IncEval raises values against the declared order: the check must refuse that, got %v", err)
		}
		if _, err := AuditedRun(t, layout, stepper{}, stepQuery{limit: 6}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzFoldEquivalence draws the host shape — a small graph, an assignment, a
// plain or expanded cut — and the reply sets from the fuzzer's bytes.
func FuzzFoldEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), uint8(40))
	f.Add(int64(2), uint8(1), uint8(1), uint8(10))
	f.Add(int64(3), uint8(7), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, workers, hops, nv uint8) {
		n := 2 + int(nv)%60
		g := gen.Random(n, 3*n, seed)
		asg := partition.NewAssignment(g, 1+int(workers)%8)
		rng := rand.New(rand.NewSource(seed))
		for _, v := range g.Vertices() {
			asg.SetOwner(v, rng.Intn(asg.N))
		}
		layout := partition.Build(g, asg)
		if h := int(hops) % 3; h > 0 {
			layout = partition.BuildExpanded(g, asg, h)
		}
		randomSupersteps(t, "fuzz", layout, seed)
	})
}
