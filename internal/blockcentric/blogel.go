// Package blockcentric implements the Blogel-style baseline of Table 1:
// "think like a block". Each worker's partition is split into connected
// blocks; a block program (B-compute) runs a sequential algorithm inside the
// block each superstep and exchanges vertex-addressed messages with other
// blocks. Blocks shrink the superstep count dramatically versus
// vertex-centric engines (one superstep per block-graph hop instead of per
// vertex hop) but still ship per-cross-edge messages and re-run block
// computations without GRAPE's coordinator-side aggregation or its
// contract of bounded incremental IncEval.
package blockcentric

import (
	"fmt"
	"sort"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// Block is one connected sub-block of a worker's partition.
type Block struct {
	ID       int
	Worker   int
	Vertices []graph.ID // sorted
	// Sub is the induced subgraph over the block's vertices plus their
	// out-edges (targets may be outside the block). Its dense order starts
	// with the members: the vertex at Sub dense index i < len(Vertices) is
	// Vertices[i]; later indices are out-of-block targets.
	Sub *graph.Graph
	// State is program-private block state persisted across supersteps.
	State any

	member map[graph.ID]bool
	gIdx   []int32 // parallel to Vertices: dense indices in the global graph, the handles BCtx.ValueAt/SetValueAt take
}

// Contains reports whether id belongs to the block.
func (b *Block) Contains(id graph.ID) bool { return b.member[id] }

// BCtx is the compute context of one block superstep. Vertex values live in
// a flat array indexed by the global graph's dense vertex index; the
// ID-addressed accessors pay one index lookup, the At-accessors none.
type BCtx struct {
	step    int
	g       *graph.Graph
	val     []float64
	has     []bool
	send    func(to graph.ID, v float64)
	workPtr *int64
}

// Superstep returns the current superstep.
func (c *BCtx) Superstep() int { return c.step }

// Value returns the current value of a vertex (any vertex; blocks read their
// own and write their own).
func (c *BCtx) Value(id graph.ID) (float64, bool) {
	if i, ok := c.g.Index(id); ok && c.has[i] {
		return c.val[i], true
	}
	return 0, false
}

// SetValue updates a vertex value; callers only set vertices of their own
// block.
func (c *BCtx) SetValue(id graph.ID, v float64) {
	if i, ok := c.g.Index(id); ok {
		c.val[i] = v
		c.has[i] = true
	}
}

// ValueAt is Value addressed by the global graph's dense vertex index.
func (c *BCtx) ValueAt(i int32) (float64, bool) {
	if c.has[i] {
		return c.val[i], true
	}
	return 0, false
}

// SetValueAt is SetValue addressed by the global graph's dense vertex index.
func (c *BCtx) SetValueAt(i int32, v float64) {
	c.val[i] = v
	c.has[i] = true
}

// Send delivers v to the block owning vertex `to` at the next superstep.
func (c *BCtx) Send(to graph.ID, v float64) { c.send(to, v) }

// AddWork charges n work units to the block's worker.
func (c *BCtx) AddWork(n int64) { *c.workPtr += n }

// Program is a block-centric program.
type Program interface {
	// Name identifies the program in stats.
	Name() string
	// InitBlock is B-compute at superstep 0.
	InitBlock(ctx *BCtx, b *Block)
	// ComputeBlock is B-compute on a block that received messages, keyed by
	// target vertex.
	ComputeBlock(ctx *BCtx, b *Block, msgs map[graph.ID][]float64)
}

// Config tunes a block-centric run.
type Config struct {
	Workers         int
	Strategy        partition.Strategy // worker-level partition; default hash
	BlocksPerWorker int                // target number of blocks per worker; default 8
	MaxSupersteps   int
}

// Run executes the block-centric program and returns the vertex values.
func Run(g *graph.Graph, prog Program, cfg Config) (map[graph.ID]float64, *metrics.Stats, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Strategy == nil {
		cfg.Strategy = partition.Hash{}
	}
	if cfg.BlocksPerWorker == 0 {
		cfg.BlocksPerWorker = 8
	}
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 1 << 20
	}
	start := time.Now()
	asg, err := cfg.Strategy.Partition(g, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	stats := &metrics.Stats{Workers: cfg.Workers}

	nv := g.NumVertices()
	blocks := buildBlocks(g, asg, cfg.BlocksPerWorker)
	blockAt := make([]int32, nv) // global dense index -> block ID
	for _, b := range blocks {
		for _, i := range b.gIdx {
			blockAt[i] = int32(b.ID)
		}
	}

	val := make([]float64, nv)
	has := make([]bool, nv)
	inbox := make(map[int]map[graph.ID][]float64) // block ID -> vertex msgs
	work := make([]int64, cfg.Workers)

	const msgSize = 16
	runStep := func(step int, active []*Block, init bool) {
		for i := range work {
			work[i] = 0
		}
		type stagedMsg struct {
			to  graph.ID
			val float64
		}
		staged := make([][]stagedMsg, len(active))
		for i, b := range active {
			bi := i
			ctx := &BCtx{step: step, g: g, val: val, has: has, workPtr: &work[b.Worker]}
			ctx.send = func(to graph.ID, v float64) {
				staged[bi] = append(staged[bi], stagedMsg{to, v})
			}
			if init {
				prog.InitBlock(ctx, b)
			} else {
				prog.ComputeBlock(ctx, b, inbox[b.ID])
			}
		}
		var stepBytes int64
		next := make(map[int]map[graph.ID][]float64)
		for i, b := range active {
			for _, m := range staged[i] {
				ti, ok := g.Index(m.to)
				if !ok {
					continue
				}
				tb := blocks[blockAt[ti]]
				if tb.Worker != b.Worker {
					stats.Messages++
					stats.Bytes += msgSize
					stepBytes += msgSize
				}
				if next[tb.ID] == nil {
					next[tb.ID] = make(map[graph.ID][]float64)
				}
				next[tb.ID][m.to] = append(next[tb.ID][m.to], m.val)
			}
		}
		inbox = next
		stats.WorkPerStep = append(stats.WorkPerStep, append([]int64(nil), work...))
		stats.BytesPerStep = append(stats.BytesPerStep, stepBytes)
	}

	runStep(0, blocks, true)
	stats.Supersteps = 1
	for len(inbox) > 0 {
		if stats.Supersteps >= cfg.MaxSupersteps {
			return nil, stats, fmt.Errorf("blockcentric: superstep limit exceeded")
		}
		ids := make([]int, 0, len(inbox))
		for id := range inbox {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		active := make([]*Block, 0, len(ids))
		for _, id := range ids {
			active = append(active, blocks[id])
		}
		runStep(stats.Supersteps, active, false)
		stats.Supersteps++
	}
	out := make(map[graph.ID]float64, nv)
	for i := 0; i < nv; i++ {
		if has[i] {
			out[g.IDAt(int32(i))] = val[i]
		}
	}
	stats.WallTime = time.Since(start)
	return out, stats, nil
}

// buildBlocks splits each worker's vertex set into connected blocks of
// roughly |part|/blocksPerWorker vertices by BFS region growing over the
// induced subgraph (Blogel's Voronoi-flavored block construction,
// simplified). The region growing runs over dense indices with flat visited
// arrays; each block's subgraph is cut CSR to CSR.
func buildBlocks(g *graph.Graph, asg *partition.Assignment, blocksPerWorker int) []*Block {
	nv := g.NumVertices()
	sortedIdx := g.SortedIndices()
	parts := make([][]int32, asg.N)
	for _, i := range sortedIdx {
		w := asg.OwnerAt(i)
		parts[w] = append(parts[w], i)
	}
	// neighbors visits u's undirected neighborhood as dense indices.
	neighbors := func(u int32, visit func(int32)) {
		for _, e := range g.OutAt(u) {
			visit(e.To)
		}
		for _, e := range g.InAt(u) {
			visit(e.To)
		}
	}
	assigned := make([]bool, nv)
	bld := graph.NewSubgraphBuilder(g)
	var blocks []*Block
	for w, idxs := range parts {
		target := (len(idxs) + blocksPerWorker - 1) / blocksPerWorker
		if target < 1 {
			target = 1
		}
		for _, seed := range idxs {
			if assigned[seed] {
				continue
			}
			// BFS from seed within the partition, up to target vertices.
			b := &Block{ID: len(blocks), Worker: w, member: make(map[graph.ID]bool)}
			queue := []int32{seed}
			assigned[seed] = true
			for len(queue) > 0 && len(b.gIdx) < target {
				u := queue[0]
				queue = queue[1:]
				b.gIdx = append(b.gIdx, u)
				neighbors(u, func(t int32) {
					if asg.OwnerAt(t) == w && !assigned[t] {
						assigned[t] = true
						queue = append(queue, t)
					}
				})
			}
			// anything still queued goes back to the pool
			for _, u := range queue {
				assigned[u] = false
			}
			sort.Slice(b.gIdx, func(i, j int) bool { return g.IDAt(b.gIdx[i]) < g.IDAt(b.gIdx[j]) })
			b.Vertices = make([]graph.ID, len(b.gIdx))
			for i, u := range b.gIdx {
				id := g.IDAt(u)
				b.Vertices[i] = id
				b.member[id] = true
			}
			// induced subgraph with out-edges (targets may leave the block)
			b.Sub = bld.Subgraph(b.gIdx, nil)
			blocks = append(blocks, b)
		}
	}
	return blocks
}
