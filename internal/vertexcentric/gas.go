package vertexcentric

import (
	"fmt"
	"math"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// GASProgram is a synchronous gather-apply-scatter program in the
// GraphLab/PowerGraph mold: active vertices pull contributions from their
// in-neighbors (gather + sum), update their value (apply), and activate
// out-neighbors whose inputs changed (scatter).
type GASProgram interface {
	// Name identifies the program in stats.
	Name() string
	// InitValue returns a vertex's initial value.
	InitValue(id graph.ID) float64
	// InitActive reports whether the vertex starts active.
	InitActive(id graph.ID) bool
	// Gather returns the contribution of in-edge (src -> dst).
	Gather(srcVal float64, e graph.Edge) float64
	// Sum folds two gather contributions.
	Sum(a, b float64) float64
	// Identity is Sum's neutral element (returned when a vertex has no
	// in-edges).
	Identity() float64
	// Apply computes the new value from the old value and the gather sum,
	// and reports whether it changed (changed vertices scatter).
	Apply(id graph.ID, old, acc float64) (float64, bool)
}

// GASConfig tunes a GAS run.
type GASConfig struct {
	Workers       int
	Strategy      partition.Strategy
	MaxSupersteps int
}

// RunGAS executes prog until no vertex is active. Traffic accounting models
// a distributed gather over an edge-cut placement: pulling a value across a
// worker boundary ships one message, as does activating a remote neighbor.
func RunGAS(g *graph.Graph, prog GASProgram, cfg GASConfig) (map[graph.ID]float64, *metrics.Stats, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Strategy == nil {
		cfg.Strategy = partition.Hash{}
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

	// Engine state in flat arrays by dense vertex index; the gather/scatter
	// loops run over the CSR form. Iteration order
	// (ascending vertex ID) and per-edge traffic accounting match the
	// map-based engine exactly.
	nv := g.NumVertices()
	sortedIdx := g.SortedIndices()
	val := make([]float64, nv)
	active := make([]bool, nv)
	activeCount := 0
	// prevChanged tracks vertices whose value changed last superstep:
	// PowerGraph-style engines cache mirror values, so a remote gather only
	// ships data when the cached copy is stale.
	prevChanged := make([]bool, nv)
	for i := int32(0); i < int32(nv); i++ {
		id := g.IDAt(i)
		val[i] = prog.InitValue(id)
		if prog.InitActive(id) {
			active[i] = true
			activeCount++
		}
		prevChanged[i] = true // initial values must reach the mirrors once
	}
	stats.Supersteps = 0

	next := make([]bool, nv)
	type pending struct {
		i int32
		v float64
	}
	var newVals []pending
	for activeCount > 0 {
		if stats.Supersteps >= cfg.MaxSupersteps {
			return nil, stats, fmt.Errorf("vertexcentric: %s: superstep limit exceeded", prog.Name())
		}
		work := make([]int64, cfg.Workers)
		var stepBytes int64
		for i := range next {
			next[i] = false
		}
		nextCount := 0
		newVals = newVals[:0]
		for _, i := range sortedIdx {
			if !active[i] {
				continue
			}
			id := g.IDAt(i)
			w := asg.OwnerAt(i)
			acc := prog.Identity()
			gather := func(ti int32, e graph.Edge) {
				work[w]++
				acc = prog.Sum(acc, prog.Gather(val[ti], e))
				if asg.OwnerAt(ti) != w && prevChanged[ti] {
					// remote gather with a stale mirror cache: the owner
					// ships the fresh neighbor value
					stats.Messages++
					stats.Bytes += msgSize
					stepBytes += msgSize
				}
			}
			for _, e := range g.InAt(i) {
				gather(e.To, graph.Edge{To: g.IDAt(e.To), W: e.W, Label: g.LabelName(e.Label)})
			}
			nval, changed := prog.Apply(id, val[i], acc)
			work[w]++
			if changed {
				newVals = append(newVals, pending{i, nval})
				scatter := func(ti int32) {
					work[w]++
					if !next[ti] {
						next[ti] = true
						nextCount++
					}
					if asg.OwnerAt(ti) != w {
						// scatter activation crosses the network
						stats.Messages++
						stats.Bytes += msgSize
						stepBytes += msgSize
					}
				}
				for _, e := range g.OutAt(i) {
					scatter(e.To)
				}
			}
		}
		for i := range prevChanged {
			prevChanged[i] = false
		}
		for _, p := range newVals {
			val[p.i] = p.v
			prevChanged[p.i] = true
		}
		active, next = next, active
		activeCount = nextCount
		stats.WorkPerStep = append(stats.WorkPerStep, work)
		stats.BytesPerStep = append(stats.BytesPerStep, stepBytes)
		stats.Supersteps++
	}
	out := make(map[graph.ID]float64, nv)
	for i := int32(0); i < int32(nv); i++ {
		out[g.IDAt(i)] = val[i]
	}
	stats.WallTime = time.Since(start)
	return out, stats, nil
}

// GASSSSP is single-source shortest paths in gather-apply-scatter form.
type GASSSSP struct {
	Source graph.ID
}

// Name implements GASProgram.
func (GASSSSP) Name() string { return "sssp" }

// InitValue implements GASProgram.
func (p GASSSSP) InitValue(id graph.ID) float64 {
	if id == p.Source {
		return 0
	}
	return infF
}

// InitActive implements GASProgram: synchronous GAS engines start with the
// whole vertex set active; the first round deactivates everything the
// source's wavefront has not reached yet.
func (p GASSSSP) InitActive(id graph.ID) bool { return true }

// Gather implements GASProgram.
func (GASSSSP) Gather(srcVal float64, e graph.Edge) float64 { return srcVal + e.W }

// Sum implements GASProgram.
func (GASSSSP) Sum(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Identity implements GASProgram.
func (GASSSSP) Identity() float64 { return infF }

// Apply implements GASProgram.
func (p GASSSSP) Apply(id graph.ID, old, acc float64) (float64, bool) {
	if acc < old {
		return acc, true
	}
	return old, false
}

// GASCC is connected components in GAS form: labels flood along both
// directions, so Gather pulls from in- and out-neighbors via the engine's
// undirected view (we model it by activating both sides on scatter and
// gathering over in-edges of the direction-symmetrized graph — for directed
// inputs, use graph.In plus graph.Out by symmetrization at construction).
type GASCC struct{}

// Name implements GASProgram.
func (GASCC) Name() string { return "cc" }

// InitValue implements GASProgram.
func (GASCC) InitValue(id graph.ID) float64 { return float64(id) }

// InitActive implements GASProgram.
func (GASCC) InitActive(id graph.ID) bool { return true }

// Gather implements GASProgram.
func (GASCC) Gather(srcVal float64, e graph.Edge) float64 { return srcVal }

// Sum implements GASProgram.
func (GASCC) Sum(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Identity implements GASProgram.
func (GASCC) Identity() float64 { return infF }

// Apply implements GASProgram.
func (GASCC) Apply(id graph.ID, old, acc float64) (float64, bool) {
	if acc < old {
		return acc, true
	}
	return old, false
}

var infF = math.Inf(1)
