// Package engine is the core of the reproduction: GRAPE's parallel query
// engine. It executes PIE programs — a triple (PEval, IncEval, Assemble) of
// sequential algorithms — as a simultaneous fixpoint over graph fragments,
// following the BSP workflow of Fig. 1 of the paper:
//
//	superstep 1:  every worker runs PEval on its fragment and ships the
//	              changed update parameters of its border nodes to the
//	              coordinator;
//	superstep r+1: the coordinator folds incoming values with the program's
//	              aggregate function, routes each changed value to every
//	              fragment hosting the node, and the workers that received
//	              messages run IncEval treating them as updates;
//	termination:  when no update parameter changes anywhere, the coordinator
//	              pulls partial results and runs Assemble.
//
// Under a monotonic condition on the update parameters (a strict partial
// order the values descend along, declared via VarSpec.Less) this fixpoint is
// guaranteed to terminate with the correct answer as long as the plugged-in
// sequential algorithms are correct — the paper's Assurance Theorem. The
// engine checks the condition on every fold of a program that declares it.
package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"grape/internal/graph"
	"grape/internal/partition"
)

// VarSpec declares the update parameters of a PIE program: the variables
// attached to border nodes, their conflict-resolution aggregate, and
// (optionally) the partial order that makes the computation monotonic.
// This declaration is the only addition GRAPE requires on top of the
// sequential algorithms.
type VarSpec[V any] struct {
	// Default is the initial value of every node's variable (e.g. +∞ for
	// shortest-path distances).
	Default V
	// Agg resolves conflicts when a variable receives multiple values
	// (e.g. min). It must be commutative and associative.
	Agg func(old, new V) V
	// Eq reports whether two values are equal; it drives change detection
	// and hence termination.
	Eq func(a, b V) bool
	// Less, if non-nil, is a strict partial order that aggregated values
	// must descend along. Programs satisfying it enjoy the Assurance
	// Theorem; the coordinator's fold refuses a change against it with
	// ErrNotMonotonic.
	Less func(a, b V) bool
	// Size returns the serialized size of a value in bytes for traffic
	// accounting. If nil, 8 bytes is assumed.
	Size func(v V) int
	// Consume marks the variables as consumable message queues rather than
	// convergent state (used by the vertex-centric simulation adapter):
	// shipped values are deleted at the sender, folded across workers
	// without the coordinator's persistent state, and routed only to the
	// node's owner. Regular PIE programs leave this false.
	Consume bool
}

func (s VarSpec[V]) sizeOf(v V) int {
	if s.Size == nil {
		return 8
	}
	return s.Size(v)
}

// shipSize is the in-process traffic estimate for a batch of updates: an
// 8-byte node ID plus the declared Size per value. It is the metering used
// by the bus; wire transports charge the encoded batch's length
// (appendBatch) instead.
func shipSize[V any](spec VarSpec[V], ups []update[V]) int {
	size := 0
	for _, u := range ups {
		size += 8 + spec.sizeOf(u.val)
	}
	return size
}

// Program is a PIE program for a query class Q with update-parameter values
// of type V and results of type R.
type Program[Q, V, R any] interface {
	// Name identifies the program in reports and the registry.
	Name() string
	// Spec declares the update parameters.
	Spec() VarSpec[V]
	// PEval computes the partial answer Q(F_i) on the local fragment. It is
	// an ordinary sequential algorithm; it reads and writes node variables
	// through ctx.
	PEval(q Q, ctx *Context[V]) error
	// IncEval incrementally updates the partial answer after the engine
	// applied a batch of update-parameter changes; ctx.Updated() lists the
	// nodes whose variables changed. A bounded IncEval touches work
	// proportional to the changes, not to |F_i|.
	IncEval(q Q, ctx *Context[V]) error
	// Assemble combines the per-fragment partial answers into Q(G). It runs
	// on the coordinator after the fixpoint is reached.
	Assemble(q Q, ctxs []*Context[V]) (R, error)
}

// update is one (node, value) pair of update-parameter traffic, addressed by
// position — no superstep hashes a vertex ID. On its way to the coordinator
// (a flush, a reply) at is the border position in the sender's fragment,
// which the fold turns into the layout's slot through Fragment.Slots; on its
// way to a fragment (a routed batch, a command, a replayed step) it is the
// dense index in the receiver's graph. Engine frames carry the same
// positions: both ends hold the fragment, so neither resolves an ID.
type update[V any] struct {
	at  int32
	val V
}

// Context is a worker's view of its fragment during a run: the node
// variables, change tracking for border nodes, work accounting, and
// scratch space for the program.
type Context[V any] struct {
	// Frag is the fragment this worker owns.
	Frag *partition.Fragment
	// State is program-private per-worker state that persists across
	// supersteps (e.g. CF's epoch counter and factor matrices).
	State any
	// Partial is the program's per-fragment partial answer when it is not
	// representable in the node variables (e.g. SubIso's match list).
	// Assemble reads it.
	Partial any

	spec VarSpec[V] //grapevet:keep set by whoever binds the context — newContext, a pooled run scratch — before reset, which keeps it
	// Node variables live in dense slices indexed by the fragment graph's
	// dense vertex index — the fragment is fixed during a run, and the
	// session layer's vertex additions are absorbed by ensure(). A vertex the
	// fragment graph does not hold has no variable here: setting one panics.
	vals []V
	has  []bool
	// borderPos is the border position + 1 of the vertex at each dense index
	// (0: not border), covering the first nb positions of Frag.BorderIndices();
	// changed is a bitmap over those positions — the border variables set
	// since the last flush, queued of them.
	borderPos  []int32
	nb         int
	changed    []uint64
	queued     int
	flushBuf   []update[V] // reused across supersteps; see flush
	updated    []graph.ID  // nodes changed by the last message application
	updatedIdx []int32     // dense indices of updated
	work       int64
	active     bool // worker requests another superstep even without messages
}

func newContext[V any](f *partition.Fragment, spec VarSpec[V]) *Context[V] {
	c := &Context[V]{spec: spec}
	c.reset(f)
	return c
}

// reset binds a context — new, or pooled — to fragment f and puts it into
// its just-constructed state, so a run starts from the program's declared
// defaults. A pooled run scratch rebinds each context to its run's fragment,
// perhaps another layout's, and a wire worker to the one its setup frame
// carried. The fragment is shared and untouched; only this run's variable
// arrays are sized to it and cleared.
func (c *Context[V]) reset(f *partition.Fragment) {
	c.Frag = f
	nv := f.G.NumVertices()
	if c.vals == nil {
		// new: sized exactly
		c.vals = make([]V, nv)
		c.has = make([]bool, nv)
		c.borderPos = make([]int32, nv)
	} else {
		// pooled: each array sized against its own capacity — ensure's
		// appends and Go's size classes round them up apart — growing with
		// headroom when the fragment outgrew it, as a session's next batches
		// will append more
		c.vals = slices.Grow(c.vals[:0], nv)[:nv]
		c.has = slices.Grow(c.has[:0], nv)[:nv]
		c.borderPos = slices.Grow(c.borderPos[:0], nv)[:nv]
		clear(c.vals)
		clear(c.has)
		clear(c.borderPos)
	}
	c.changed = c.changed[:0]
	c.nb, c.queued = 0, 0
	c.syncBorder()
	c.flushBuf = c.flushBuf[:0]
	c.updated = c.updated[:0]
	c.updatedIdx = c.updatedIdx[:0]
	c.work = 0
	c.active = false
	c.State = nil
	c.Partial = nil
}

// ensure grows the dense arrays to cover dense index i; the session layer
// appends vertices to the fragment graph after context creation. An index
// past the fragment graph's vertices panics.
func (c *Context[V]) ensure(i int32) {
	if int(i) < len(c.vals) {
		return
	}
	if n := c.Frag.G.NumVertices(); int(i) >= n {
		panic(fmt.Sprintf("engine: vertex index %d is past fragment %d's %d vertices", i, c.Frag.Index, n))
	}
	for int(i) >= len(c.vals) {
		var zero V
		c.vals = append(c.vals, zero)
		c.has = append(c.has, false)
		c.borderPos = append(c.borderPos, 0)
	}
}

// at returns id's dense index, panicking when the fragment graph does not
// hold id: a variable there could neither ship nor reach Assemble.
func (c *Context[V]) at(id graph.ID) int32 {
	i, ok := c.Frag.G.Index(id)
	if !ok {
		panic(fmt.Sprintf("engine: vertex %d is not in fragment %d", id, c.Frag.Index))
	}
	return i
}

// syncBorder takes note of the border positions the fragment has and the
// context has not seen: all of them at reset, the ones a session's graph
// updates appended since (positions never move, so the rest stands).
func (c *Context[V]) syncBorder() {
	idx := c.Frag.BorderIndices()
	for p := c.nb; p < len(idx); p++ {
		c.ensure(idx[p])
		c.borderPos[idx[p]] = int32(p) + 1
	}
	c.nb = len(idx)
	for len(c.changed) < (c.nb+63)/64 {
		c.changed = append(c.changed, 0)
	}
}

// queue marks the border variable at dense index i, if it is one, for the
// next flush.
func (c *Context[V]) queue(i int32) {
	if p := c.borderPos[i] - 1; p >= 0 && c.changed[p>>6]&(1<<(p&63)) == 0 {
		c.changed[p>>6] |= 1 << (p & 63)
		c.queued++
	}
}

// Get returns the variable of id, or the declared default if it was never
// set or the fragment graph does not hold id.
func (c *Context[V]) Get(id graph.ID) V {
	if i, ok := c.Frag.G.Index(id); ok {
		return c.GetAt(i)
	}
	return c.spec.Default
}

// Set assigns v to id's variable. If the value changed and id is a border
// node, the change is queued for shipping at the end of the superstep. It
// panics when the fragment graph does not hold id.
func (c *Context[V]) Set(id graph.ID, v V) { c.SetAt(c.at(id), v) }

// SetLocal assigns v to id's variable without queueing it for shipment.
// It is for initializations every replica derives identically from the
// replicated vertex data (e.g. Sim's label-candidate masks): shipping them
// would tell the other hosts nothing new. Subsequent Set calls that change
// the value still ship normally. It panics when the fragment graph does not
// hold id.
func (c *Context[V]) SetLocal(id graph.ID, v V) { c.SetLocalAt(c.at(id), v) }

// GetAt is Get addressed by the fragment graph's dense vertex index — the
// hash-free accessor kernels traversing a graph use per edge hop.
func (c *Context[V]) GetAt(i int32) V {
	if int(i) < len(c.vals) && c.has[i] {
		return c.vals[i]
	}
	return c.spec.Default
}

// SetAt is Set addressed by dense vertex index; it panics on an index past
// the fragment graph's vertices.
func (c *Context[V]) SetAt(i int32, v V) {
	c.ensure(i)
	if c.has[i] && c.spec.Eq(c.vals[i], v) {
		return
	}
	if !c.has[i] && c.spec.Eq(c.spec.Default, v) {
		return
	}
	c.vals[i] = v
	c.has[i] = true
	c.queue(i)
}

// SetLocalAt is SetLocal addressed by dense vertex index.
func (c *Context[V]) SetLocalAt(i int32, v V) {
	c.ensure(i)
	c.vals[i] = v
	c.has[i] = true
}

// IsBorderAt is IsBorder addressed by dense vertex index.
func (c *Context[V]) IsBorderAt(i int32) bool {
	return int(i) < len(c.borderPos) && c.borderPos[i] != 0
}

// IsInnerAt reports whether the vertex at dense index i is owned by this
// fragment, without hashing.
func (c *Context[V]) IsInnerAt(i int32) bool { return c.Frag.IsInnerAt(i) }

// IsBorder reports whether id carries an update parameter (it is an outer
// copy here or has copies on other fragments).
func (c *Context[V]) IsBorder(id graph.ID) bool {
	i, ok := c.Frag.G.Index(id)
	return ok && c.IsBorderAt(i)
}

// Updated returns the nodes whose variables were changed by the message
// batch that triggered the current IncEval call, in ascending ID order.
func (c *Context[V]) Updated() []graph.ID { return c.updated }

// UpdatedAt returns the dense indices of the nodes Updated lists, less any
// the fragment graph does not hold (a session's repair may seed one).
func (c *Context[V]) UpdatedAt() []int32 { return c.updatedIdx }

// VarsAt is Vars addressed by dense vertex index. The callback must not
// mutate the context.
func (c *Context[V]) VarsAt(f func(i int32, v V)) {
	for i, ok := range c.has {
		if ok {
			f(int32(i), c.vals[i])
		}
	}
}

// AddWork charges n elementary work units (queue operation, edge relaxation,
// …) to this worker in the current superstep; Stats.WorkPerStep records it.
func (c *Context[V]) AddWork(n int64) { c.work += n }

// KeepActive asks the engine to schedule this worker again next superstep
// even if no update parameters arrive. BSP-lockstep programs (the
// vertex-centric simulation adapter) use it when local computation remains;
// convergent PIE programs never need it. The flag resets before every
// PEval/IncEval invocation.
func (c *Context[V]) KeepActive() { c.active = true }

// Vars exposes a copy-free iteration over all set variables; Assemble
// implementations use it. The callback must not mutate the context.
func (c *Context[V]) Vars(f func(id graph.ID, v V)) {
	g := c.Frag.G
	for i, ok := range c.has {
		if ok {
			f(g.IDAt(int32(i)), c.vals[i])
		}
	}
}

// flush returns and clears the queued border changes as (border position,
// value), ascending by position — which is ascending by ID for a fragment as
// cut — for deterministic aggregation at the coordinator. The returned slice
// is reused by the next flush; the coordinator consumes it within one collect,
// before this worker can be scheduled again.
func (c *Context[V]) flush() []update[V] {
	if c.queued == 0 {
		return nil
	}
	idx := c.Frag.BorderIndices()
	ups := c.flushBuf[:0]
	for w := 0; len(ups) < c.queued; w++ {
		for word := c.changed[w]; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			i := idx[p]
			ups = append(ups, update[V]{at: int32(p), val: c.vals[i]})
			if c.spec.Consume {
				var zero V
				c.vals[i] = zero // shipped messages leave the sender
				c.has[i] = false
			}
		}
		c.changed[w] = 0
	}
	c.queued = 0
	c.flushBuf = ups
	return ups
}

// apply folds a batch of routed updates, addressed by dense index, into the
// variables using Agg and records which nodes actually changed; those become
// Updated() for IncEval, in batch order — ascending by ID, as the coordinator
// routes. Applied values are not re-queued for shipping: the coordinator
// already knows them.
func (c *Context[V]) apply(ups []update[V]) {
	c.updated = c.updated[:0]
	c.updatedIdx = c.updatedIdx[:0]
	g := c.Frag.G
	for _, u := range ups {
		i := u.at
		c.ensure(i)
		old := c.spec.Default
		if c.has[i] {
			old = c.vals[i]
		}
		merged := c.spec.Agg(old, u.val)
		if c.spec.Eq(old, merged) {
			continue
		}
		c.vals[i] = merged
		c.has[i] = true
		c.updated = append(c.updated, g.IDAt(i))
		c.updatedIdx = append(c.updatedIdx, i)
	}
}

// touch re-queues id's current value for shipping even though it did not
// change — used when a node newly becomes border and its existing value must
// reach the new copy holders.
func (c *Context[V]) touch(id graph.ID) {
	if i, ok := c.Frag.G.Index(id); ok && int(i) < len(c.vals) && c.has[i] {
		c.queue(i)
	}
}

// clearVar erases id's variable entirely — afterwards Get returns the
// declared default, exactly as if the node had never been set.
func (c *Context[V]) clearVar(id graph.ID) {
	if i, ok := c.Frag.G.Index(id); ok {
		c.clearVarAt(i)
	}
}

// clearVarAt is clearVar addressed by dense vertex index. A queued border
// change for the node is dropped too: shipping the zeroed slot would leak a
// meaningless value to the coordinator. The session layer's delete repair
// uses this to invalidate the nodes whose values a removed edge may have
// supported, before re-seeding the fixpoint.
func (c *Context[V]) clearVarAt(i int32) {
	if int(i) >= len(c.vals) {
		return
	}
	var zero V
	c.vals[i] = zero
	c.has[i] = false
	if p := c.borderPos[i] - 1; p >= 0 && c.changed[p>>6]&(1<<(p&63)) != 0 {
		c.changed[p>>6] &^= 1 << (p & 63)
		c.queued--
	}
}

// setUpdated overrides the updated set; the session layer uses it to seed
// IncEval with locally-dirtied nodes after graph updates.
func (c *Context[V]) setUpdated(ids []graph.ID) {
	c.updated = ids
	c.updatedIdx = c.updatedIdx[:0]
	for _, id := range ids {
		if i, ok := c.Frag.G.Index(id); ok {
			c.updatedIdx = append(c.updatedIdx, i)
		}
	}
}

func (c *Context[V]) takeWork() int64 {
	w := c.work
	c.work = 0
	return w
}
