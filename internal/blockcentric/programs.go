package blockcentric

import (
	"math"
	"sort"

	"grape/internal/graph"
	"grape/internal/seq"
)

// SSSPBlock is single-source shortest paths as a block program: every
// activation runs Dijkstra inside the block seeded by improved boundary
// values, then ships improvements across block-leaving edges.
type SSSPBlock struct {
	Source graph.ID
}

// Name implements Program.
func (SSSPBlock) Name() string { return "sssp" }

// InitBlock implements Program.
func (p SSSPBlock) InitBlock(ctx *BCtx, b *Block) {
	if !b.Contains(p.Source) {
		return
	}
	ctx.SetValue(p.Source, 0)
	relaxBlock(ctx, b, []graph.ID{p.Source})
}

// ComputeBlock implements Program.
func (p SSSPBlock) ComputeBlock(ctx *BCtx, b *Block, msgs map[graph.ID][]float64) {
	var seeds []graph.ID
	for v, ms := range msgs {
		best := math.Inf(1)
		for _, m := range ms {
			ctx.AddWork(1)
			if m < best {
				best = m
			}
		}
		if cur, ok := ctx.Value(v); !ok || best < cur {
			ctx.SetValue(v, best)
			seeds = append(seeds, v)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	relaxBlock(ctx, b, seeds)
}

// ssspScratch is SSSPBlock's per-block state: reusable relaxation buffers
// (a block is re-activated once per incoming wavefront, so the scratch pays
// for itself many times over a run).
type ssspScratch struct {
	dist, init []float64
	sidx       []int32
	outbound   []outMsg
}

type outMsg struct {
	to graph.ID
	d  float64
}

// relaxBlock runs Dijkstra over the block from the seeds, entirely on the
// block subgraph's dense indices: distances live in a flat scratch
// array seeded from the global values, and only actual improvements are
// written back. Improvements to vertices outside the block become messages,
// combined per target (Blogel's combiner).
func relaxBlock(ctx *BCtx, b *Block, seeds []graph.ID) {
	sub := b.Sub
	n := sub.NumVertices()
	nm := len(b.Vertices) // members occupy Sub dense indices [0, nm)
	st, _ := b.State.(*ssspScratch)
	if st == nil {
		st = &ssspScratch{dist: make([]float64, n), init: make([]float64, n)}
		b.State = st
	}
	dist, init := st.dist, st.init
	for i := 0; i < nm; i++ {
		d := math.Inf(1)
		if v, ok := ctx.ValueAt(b.gIdx[i]); ok {
			d = v
		}
		dist[i] = d
		init[i] = d
	}
	for i := nm; i < n; i++ { // out-of-block targets start unreached
		dist[i] = math.Inf(1)
		init[i] = math.Inf(1)
	}
	sidx := st.sidx[:0]
	for _, s := range seeds {
		if i, ok := sub.Index(s); ok {
			sidx = append(sidx, i)
		}
	}
	st.sidx = sidx
	work, _ := seq.RelaxCol(sub, false, sidx, dist, 1, 0, nil, nil)
	ctx.AddWork(work)
	for i := 0; i < nm; i++ {
		if dist[i] < init[i] {
			ctx.SetValueAt(b.gIdx[i], dist[i])
		}
	}
	// Out-of-block improvements ship as messages, ascending by target ID.
	outbound := st.outbound[:0]
	for i := nm; i < n; i++ {
		if dist[i] < init[i] {
			outbound = append(outbound, outMsg{sub.IDAt(int32(i)), dist[i]})
		}
	}
	sort.Slice(outbound, func(i, j int) bool { return outbound[i].to < outbound[j].to })
	for _, m := range outbound {
		ctx.Send(m.to, m.d)
	}
	st.outbound = outbound
}

// ccBlockState caches the block's internal connectivity: local sets never
// change, so ComputeBlock only moves labels. The union-find runs over the
// block subgraph's dense indices.
type ccBlockState struct {
	uf        *seq.DenseUnionFind
	rootLabel []graph.ID // by Sub dense root index
	rootHas   []bool
	// crossOf lists, per local root, the block-leaving edges of the set.
	crossOf map[int32][]graph.ID
}

// CCBlock is weakly connected components as a block program: min-label
// propagation at block granularity.
type CCBlock struct{}

// Name implements Program.
func (CCBlock) Name() string { return "cc" }

// InitBlock implements Program.
func (CCBlock) InitBlock(ctx *BCtx, b *Block) {
	sub := b.Sub
	n := sub.NumVertices()
	nm := len(b.Vertices)
	st := &ccBlockState{
		uf:        seq.NewDenseUnionFind(n),
		rootLabel: make([]graph.ID, n),
		rootHas:   make([]bool, n),
		crossOf:   map[int32][]graph.ID{},
	}
	b.State = st
	for i := int32(0); i < int32(nm); i++ {
		for _, e := range sub.OutAt(i) {
			ctx.AddWork(1)
			if int(e.To) < nm { // both endpoints in the block
				st.uf.Union(i, e.To)
			}
		}
	}
	for i := int32(0); i < int32(nm); i++ {
		r := st.uf.Find(i)
		if v := b.Vertices[i]; !st.rootHas[r] || v < st.rootLabel[r] {
			st.rootLabel[r] = v
			st.rootHas[r] = true
		}
	}
	for i := int32(0); i < int32(nm); i++ {
		for _, e := range sub.OutAt(i) {
			if int(e.To) >= nm {
				r := st.uf.Find(i)
				st.crossOf[r] = append(st.crossOf[r], sub.IDAt(e.To))
			}
		}
	}
	for i := 0; i < nm; i++ {
		ctx.SetValueAt(b.gIdx[i], float64(st.rootLabel[st.uf.Find(int32(i))]))
	}
	// initial label exchange
	for r, targets := range st.crossOf {
		l := float64(st.rootLabel[r])
		for _, to := range targets {
			ctx.Send(to, l)
			ctx.AddWork(1)
		}
	}
}

// ComputeBlock implements Program.
func (CCBlock) ComputeBlock(ctx *BCtx, b *Block, msgs map[graph.ID][]float64) {
	st := b.State.(*ccBlockState)
	sub := b.Sub
	best := make(map[int32]graph.ID) // root -> lowest incoming
	for v, ms := range msgs {
		vi, ok := sub.Index(v)
		if !ok {
			continue
		}
		r := st.uf.Find(vi)
		for _, m := range ms {
			ctx.AddWork(1)
			l := graph.ID(m)
			if cur, ok := best[r]; !ok || l < cur {
				best[r] = l
			}
		}
	}
	roots := make([]int32, 0, len(best))
	for r := range best {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		l := best[r]
		if st.rootHas[r] && l >= st.rootLabel[r] {
			continue
		}
		st.rootLabel[r] = l
		st.rootHas[r] = true
		for i := 0; i < len(b.Vertices); i++ {
			if st.uf.Find(int32(i)) == r {
				ctx.SetValueAt(b.gIdx[i], float64(l))
			}
		}
		for _, to := range st.crossOf[r] {
			ctx.Send(to, float64(l))
			ctx.AddWork(1)
		}
	}
}
