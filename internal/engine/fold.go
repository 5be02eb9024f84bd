package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"grape/internal/graph"
	"grape/internal/partition"
)

// The coordinator's per-superstep work — folding every worker's reported
// update-parameter changes and routing the survivors — runs while every
// worker waits, so it addresses nothing by vertex ID: a reported change names
// a border position of its sender, the sender's fragment maps that to the
// layout's slot, and the fold is arrays indexed by slot. Replies are walked in
// worker order, so aggregation is deterministic even for non-commutative
// aggregates (e.g. CF's parameter averaging), and the changes come out in
// ascending slot order — ascending vertex ID, the order of every routed batch
// and checkpoint epoch — because the cut numbered the slots so, not by a sort.

// foldState carries the coordinator's aggregation state across supersteps:
// the best-known value of every border slot, this superstep's changes, and
// the per-worker routing buffers, all reused between supersteps — and, through
// a pooled runScratch, between runs, each rebound to its run's layout.
type foldState[V any] struct {
	spec   vars[V]
	layout *partition.Layout

	val    []V     // by slot: the folded value
	has    []bool  // by slot: val is set (never, for queue variables)
	winner []int32 // by slot: the worker whose report last moved val
	// movedAt is a bitmap over slots, set while a superstep's replies are
	// folded; moved lists the same slots, ascending by vertex ID, once fold
	// returns: one per changed node, val and winner holding its final value
	// and the worker that caused it (routing skips that worker — it already
	// holds the value).
	movedAt []uint64
	moved   []int32
	route   [][]update[V] // per-worker routing buffers
}

func newFoldState[V any](spec vars[V], layout *partition.Layout) *foldState[V] {
	f := new(foldState[V])
	f.reset(spec, layout)
	return f
}

// grow sizes the arrays to the layout's slots; a session's graph updates
// append some.
func (f *foldState[V]) grow() {
	if n := f.layout.Slots(); n > len(f.has) {
		f.val = append(f.val, make([]V, n-len(f.val))...)
		f.has = append(f.has, make([]bool, n-len(f.has))...)
		f.winner = append(f.winner, make([]int32, n-len(f.winner))...)
		f.movedAt = append(f.movedAt, make([]uint64, (n+63)/64-len(f.movedAt))...)
	}
}

// reset binds a new or released fold to a run over layout: the slot arrays
// sized to its slots and cleared, one routing buffer per fragment, every
// buffer kept.
func (f *foldState[V]) reset(spec vars[V], layout *partition.Layout) {
	f.spec, f.layout = spec, layout
	n := layout.Slots()
	f.val = slices.Grow(f.val[:0], n)[:n]
	f.has = slices.Grow(f.has[:0], n)[:n]
	f.winner = slices.Grow(f.winner[:0], n)[:n]
	f.movedAt = slices.Grow(f.movedAt[:0], (n+63)/64)[:(n+63)/64]
	clear(f.val)
	clear(f.has)
	clear(f.winner)
	clear(f.movedAt)
	f.moved = f.moved[:0]
	f.route = slices.Grow(f.route[:0], len(layout.Fragments))[:len(layout.Fragments)]
	for i := range f.route {
		f.route[i] = f.route[i][:0]
	}
}

// release drops what a pooled fold holds of its finished run — the layout and
// every folded or routed value — keeping every buffer, so the pool pins
// neither a one-shot layout nor its values.
func (f *foldState[V]) release() {
	f.spec, f.layout = vars[V]{}, nil
	clear(f.val)
	for i, batch := range f.route {
		batch = batch[:cap(batch)]
		clear(batch)
		f.route[i] = batch[:0]
	}
}

// lookup returns the folded global value of id, if any. The session layer
// uses it to bring new outer copies up to date.
func (f *foldState[V]) lookup(id graph.ID) (v V, ok bool) {
	if s, border := f.layout.SlotOf(id); border && int(s) < len(f.has) && f.has[s] {
		return f.val[s], true
	}
	return v, false
}

// forget drops the coordinator's folded value of slot s. Delete repair uses
// it when a node's value is invalidated: the retained baseline would otherwise
// suppress (via Eq) or reject (via the monotonicity check) the re-derived
// value of the node.
func (f *foldState[V]) forget(s int32) {
	f.grow()
	var zero V
	f.val[s], f.has[s] = zero, false
}

// force overwrites the coordinator's folded value of slot s, bypassing Agg
// and the monotonicity check. Delete repair uses it to re-align the baseline
// with a repaired value that may sit above the old one in the order (e.g. a
// CC label after a component split).
func (f *foldState[V]) force(s int32, v V) {
	f.grow()
	f.val[s], f.has[s] = v, true
}

// fold aggregates one superstep's reports. replies is indexed by worker;
// nil entries are workers that were not scheduled. When the spec declares
// Less, every change to a value already folded must descend along it — the
// Assurance Theorem's condition — or the superstep fails with
// ErrNotMonotonic. A report the value table says cannot fold (a vector of
// another width) fails the superstep before it reaches Agg.
func (f *foldState[V]) fold(replies []*workerReply[V]) error {
	f.grow()
	spec := f.spec
	for w, rep := range replies {
		if rep == nil {
			continue
		}
		slots := f.layout.Fragments[w].Slots()
		for _, u := range rep.changes {
			s := slots[u.at]
			bit := uint64(1) << (s & 63)
			if spec.queue {
				// queue semantics: this superstep's reports alone are folded,
				// in worker order, and delivered to the owner; nothing
				// persists here (has stays false)
				if f.movedAt[s>>6]&bit != 0 {
					f.val[s] = spec.Agg(f.val[s], u.val)
					continue
				}
				f.val[s] = spec.Agg(spec.Default, u.val)
			} else {
				old := spec.Default
				if f.has[s] {
					old = f.val[s]
				}
				if spec.fits != nil {
					if err := spec.fits(old, u.val); err != nil {
						return fmt.Errorf("engine: worker %d: node %d: %w", w, f.layout.SlotID(s), err)
					}
				}
				merged := spec.Agg(old, u.val)
				if spec.eq(old, merged) {
					continue
				}
				if spec.Less != nil && f.has[s] && !spec.Less(merged, old) {
					return fmt.Errorf("engine: node %d: %v -> %v: %w", f.layout.SlotID(s), old, merged, ErrNotMonotonic)
				}
				f.val[s], f.has[s] = merged, true
			}
			f.winner[s] = int32(w)
			f.movedAt[s>>6] |= bit
		}
	}
	f.moved = f.moved[:0]
	for w, word := range f.movedAt {
		for ; word != 0; word &= word - 1 {
			f.moved = append(f.moved, int32(w<<6|bits.TrailingZeros64(word)))
		}
		f.movedAt[w] = 0
	}
	// Ascending slot is ascending ID among the slots the cut numbered — a
	// property of the index. Slots a session appended since are in arrival
	// order; when one of those moved, ID order is restored by sorting.
	if n := len(f.moved); n > 0 && int(f.moved[n-1]) >= f.layout.CutSlots() {
		slices.SortFunc(f.moved, func(a, b int32) int { return cmp.Compare(f.layout.SlotID(a), f.layout.SlotID(b)) })
	}
	return nil
}

// buildRoute turns the folded changes into per-worker update batches: each
// changed value goes to every fragment hosting the node except the winner
// (queue variables go to the owner only: they are messages, not state),
// addressed by the dense index the host keeps the node at. Batches come out
// ordered by node ID because the changes are. Buffers are reused across
// supersteps — workers are done with the previous batch before their replies
// reach the coordinator, so nothing aliases. Returns the routing table
// (indexed by worker; empty slices mean "not scheduled") and the number of
// workers with pending updates.
func (f *foldState[V]) buildRoute() ([][]update[V], int) {
	for w := range f.route {
		f.route[w] = f.route[w][:0]
	}
	for _, s := range f.moved {
		for _, h := range f.layout.SlotHosts(s) {
			if routed(f.spec.queue, f.layout, h, int(f.winner[s])) {
				f.route[h.Frag] = append(f.route[h.Frag], update[V]{at: h.At, val: f.val[s]})
			}
		}
	}
	scheduled := 0
	for _, batch := range f.route {
		if len(batch) > 0 {
			scheduled++
		}
	}
	return f.route, scheduled
}

// routed is the routing rule, shared with checkpoint replay: a changed value
// goes to host h unless h reported the winning value itself; a queue
// variable's goes to the owner alone.
func routed(queue bool, layout *partition.Layout, h partition.Host, winner int) bool {
	if queue {
		return layout.Fragments[h.Frag].IsInnerAt(h.At)
	}
	return int(h.Frag) != winner
}
