// Package vertexcentric implements the two vertex-centric baselines GRAPE is
// compared against in Table 1 and Section 3: a Pregel-style BSP engine
// ("think like a vertex", standing in for Giraph) and a synchronous
// gather-apply-scatter engine (standing in for GraphLab/PowerGraph).
//
// Both engines run on the same partition assignments as GRAPE, execute
// deterministically, and meter exactly what the paper's communication column
// measures: messages that cross worker boundaries. The point the comparison
// makes is structural, not constant-factor — on a high-diameter graph a
// vertex-centric SSSP needs one superstep per hop of the shortest-path tree
// and ships one message per relaxed cross-edge, while GRAPE needs one
// superstep per fragment-graph hop and ships one value per changed border
// node.
package vertexcentric

import (
	"fmt"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// Vertex is the per-vertex state a Pregel program manipulates.
type Vertex struct {
	ID     graph.ID
	Value  float64
	halted bool
}

// VoteToHalt deactivates the vertex until a message arrives.
func (v *Vertex) VoteToHalt() { v.halted = true }

// Halted reports whether the vertex has voted to halt. The simulation
// adapter (package simulate) reads it between supersteps.
func (v *Vertex) Halted() bool { return v.halted }

// Ctx is the compute context handed to a vertex program.
type Ctx struct {
	step    int
	g       *graph.Graph
	sendFn  func(to graph.ID, val float64)
	workPtr *int64
	out, in []graph.Edge // Out's and In's buffers, reused call to call
}

// Superstep returns the current superstep (0 = initialization).
func (c *Ctx) Superstep() int { return c.step }

// Out returns the out-edges of id, in a buffer the context owns: the slice
// is valid until the next Out call.
func (c *Ctx) Out(id graph.ID) []graph.Edge {
	i, ok := c.g.Index(id)
	if !ok {
		return nil
	}
	c.out = c.fill(c.out, c.g.OutAt(i))
	return c.out
}

// In returns the in-edges of id (programs that need undirected propagation,
// like CC, send along both directions), in a buffer the context owns: the
// slice is valid until the next In call.
func (c *Ctx) In(id graph.ID) []graph.Edge {
	i, ok := c.g.Index(id)
	if !ok {
		return nil
	}
	c.in = c.fill(c.in, c.g.InAt(i))
	return c.in
}

// fill resolves packed edges into buf.
func (c *Ctx) fill(buf []graph.Edge, dense []graph.DenseEdge) []graph.Edge {
	buf = buf[:0]
	for _, e := range dense {
		buf = append(buf, graph.Edge{To: c.g.IDAt(e.To), W: e.W, Label: c.g.LabelName(e.Label)})
	}
	return buf
}

// Send delivers val to vertex `to` at the next superstep.
func (c *Ctx) Send(to graph.ID, val float64) { c.sendFn(to, val) }

// AddWork charges n elementary work units to the current worker.
func (c *Ctx) AddWork(n int64) { *c.workPtr += n }

// NewRawCtx builds a compute context with a caller-supplied message sink.
// It exists so other engines (GRAPE's Simulation Theorem adapter) can host
// unmodified vertex programs.
func NewRawCtx(step int, g *graph.Graph, work *int64, send func(to graph.ID, val float64)) *Ctx {
	return &Ctx{step: step, g: g, workPtr: work, sendFn: send}
}

// Program is a Pregel vertex program with float64 messages (distances,
// labels, rank contributions).
type Program interface {
	// Name identifies the program in stats.
	Name() string
	// Init runs at superstep 0 for every vertex; it may send messages.
	Init(ctx *Ctx, v *Vertex)
	// Compute runs at each later superstep for every active vertex (one
	// that has not halted or that received messages).
	Compute(ctx *Ctx, v *Vertex, msgs []float64)
}

// Config tunes a Pregel run.
type Config struct {
	// Workers is the number of workers. Default 4.
	Workers int
	// Strategy partitions the vertices. Default hash (what Giraph does).
	Strategy partition.Strategy
	// Combiner, if non-nil, folds messages addressed to the same target
	// vertex within each sending worker before shipping (Giraph's combiner
	// optimization).
	Combiner func(a, b float64) float64
	// MaxSupersteps caps the run. Default 1 << 20.
	MaxSupersteps int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Strategy == nil {
		c.Strategy = partition.Hash{}
	}
	if c.MaxSupersteps == 0 {
		c.MaxSupersteps = 1 << 20
	}
	return c
}

// msgSize is the wire size of one vertex message: 8-byte target + 8-byte
// payload.
const msgSize = 16

// Run executes prog over g under BSP semantics and returns the final vertex
// values. Scheduling is frontier-based: each superstep touches only the
// vertices that are awake or received messages, as real Pregel
// implementations do.
//
// All engine-internal state — vertex values, inboxes, the awake set, the
// per-worker message staging — lives in flat arrays indexed by the graph's
// dense vertex index; maps appear nowhere on the per-superstep path. The
// iteration order (per worker, ascending vertex ID) and the per-target
// message delivery order (sending worker ascending, send order within a
// worker) match the original map-based engine exactly, so values, work,
// message counts and supersteps are all bit-identical.
func Run(g *graph.Graph, prog Program, cfg Config) (map[graph.ID]float64, *metrics.Stats, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	asg, err := cfg.Strategy.Partition(g, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	stats := &metrics.Stats{Workers: cfg.Workers}

	nv := g.NumVertices()
	sortedIdx := g.SortedIndices()
	vertices := make([]Vertex, nv)
	for i := range vertices {
		vertices[i] = Vertex{ID: g.IDAt(int32(i))}
	}

	// inbox: msgs[i] holds the messages pending for vertex i iff
	// msgStamp[i] == the current superstep; stale slices are reused.
	msgs := make([][]float64, nv)
	msgStamp := make([]int, nv)
	for i := range msgStamp {
		msgStamp[i] = -1
	}
	inboxCount := 0 // vertices with pending messages
	awake := make([]bool, nv)
	awakeCount := 0
	work := make([]int64, cfg.Workers)

	type stagedMsg struct {
		to  int32
		val float64
	}
	bufs := make([][]stagedMsg, cfg.Workers) // staged sends, reused across steps
	parts := make([][]int32, cfg.Workers)    // per-worker participants, reused
	ctxs := make([]Ctx, cfg.Workers)         // per-worker contexts, their edge buffers reused

	// runStep executes one superstep over the participants staged in parts.
	runStep := func(step int, isInit bool) {
		for i := range work {
			work[i] = 0
		}
		for w := 0; w < cfg.Workers; w++ {
			buf := bufs[w][:0]
			var cb map[int32]int // combiner: target -> position in buf
			if cfg.Combiner != nil {
				cb = make(map[int32]int)
			}
			ctx := &ctxs[w]
			ctx.step, ctx.g, ctx.workPtr = step, g, &work[w]
			ctx.sendFn = func(to graph.ID, val float64) {
				ti, ok := g.Index(to)
				if !ok {
					return
				}
				if cb != nil {
					if k, seen := cb[ti]; seen {
						buf[k].val = cfg.Combiner(buf[k].val, val)
						return
					}
					cb[ti] = len(buf)
				}
				buf = append(buf, stagedMsg{ti, val})
			}
			for _, i := range parts[w] {
				v := &vertices[i]
				var inbox []float64
				if msgStamp[i] == step {
					inbox = msgs[i]
				}
				if isInit {
					prog.Init(ctx, v)
				} else {
					if len(inbox) > 0 {
						v.halted = false
					}
					if v.halted {
						continue
					}
					prog.Compute(ctx, v, inbox)
				}
				if v.halted {
					if awake[i] {
						awake[i] = false
						awakeCount--
					}
				} else if !awake[i] {
					awake[i] = true
					awakeCount++
				}
			}
			bufs[w] = buf
		}
		// Deliver: local messages are free; cross-worker ones are traffic.
		// Per-target arrival order is sender worker ascending, send order
		// within a worker — identical for order-sensitive folds (PageRank).
		var stepBytes int64
		inboxCount = 0
		next := step + 1
		for w := 0; w < cfg.Workers; w++ {
			for _, m := range bufs[w] {
				if asg.OwnerAt(m.to) != w {
					stats.Messages++
					stats.Bytes += msgSize
					stepBytes += msgSize
				}
				if msgStamp[m.to] != next {
					msgStamp[m.to] = next
					msgs[m.to] = msgs[m.to][:0]
					inboxCount++
				}
				msgs[m.to] = append(msgs[m.to], m.val)
			}
		}
		stats.WorkPerStep = append(stats.WorkPerStep, append([]int64(nil), work...))
		stats.BytesPerStep = append(stats.BytesPerStep, stepBytes)
	}

	// group stages the next step's participants: scanning the ID-sorted
	// index list buckets each worker's vertices in ascending-ID order.
	group := func(step int, all bool) {
		for w := range parts {
			parts[w] = parts[w][:0]
		}
		for _, i := range sortedIdx {
			if all || awake[i] || msgStamp[i] == step {
				w := asg.OwnerAt(i)
				parts[w] = append(parts[w], i)
			}
		}
	}

	group(0, true)
	runStep(0, true)
	stats.Supersteps = 1

	for inboxCount > 0 || awakeCount > 0 {
		if stats.Supersteps >= cfg.MaxSupersteps {
			return nil, stats, fmt.Errorf("vertexcentric: %s: superstep limit %d exceeded", prog.Name(), cfg.MaxSupersteps)
		}
		group(stats.Supersteps, false)
		runStep(stats.Supersteps, false)
		stats.Supersteps++
	}

	out := make(map[graph.ID]float64, nv)
	for i := range vertices {
		out[vertices[i].ID] = vertices[i].Value
	}
	stats.WallTime = time.Since(start)
	return out, stats, nil
}
