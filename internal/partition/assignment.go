// Package partition implements GRAPE's Partition Manager: strategies that
// split a graph across n workers (hash, range, 2D blocks, Fennel-style
// streaming, and a METIS-like refined partitioner), the Fragment type each
// worker computes on, and partition-quality metrics (edge cut, balance,
// border size). The Section 3 demo lets users pick a strategy from a library;
// Strategies() exposes the same registry here.
package partition

import (
	"fmt"
	"sort"

	"grape/internal/graph"
)

// Assignment maps every vertex of a graph to one of N owners.
type Assignment struct {
	G     *graph.Graph
	N     int
	owner []int32 // indexed by the graph's dense vertex index
}

// NewAssignment returns an Assignment with all vertices owned by worker 0.
func NewAssignment(g *graph.Graph, n int) *Assignment {
	return &Assignment{G: g, N: n, owner: make([]int32, g.NumVertices())}
}

// SetOwner assigns id to worker w. It panics if id is absent or w out of range.
func (a *Assignment) SetOwner(id graph.ID, w int) {
	i, ok := a.G.Index(id)
	if !ok {
		panic(fmt.Sprintf("partition: vertex %d not in graph", id))
	}
	a.SetOwnerAt(i, w)
}

// SetOwnerAt assigns the vertex at dense index i of G to worker w — SetOwner
// without the hash, for strategies that walk the graph in dense order. It
// panics if w is out of range.
func (a *Assignment) SetOwnerAt(i int32, w int) {
	if w < 0 || w >= a.N {
		panic(fmt.Sprintf("partition: owner %d out of range [0,%d)", w, a.N))
	}
	a.owner[i] = int32(w)
}

// Owner returns the worker owning id. It panics if id is absent.
func (a *Assignment) Owner(id graph.ID) int {
	i, ok := a.G.Index(id)
	if !ok {
		panic(fmt.Sprintf("partition: vertex %d not in graph", id))
	}
	return int(a.owner[i])
}

// OwnerAt returns the worker owning the vertex at dense index i of G — the
// hash-free accessor engines use on per-vertex and per-edge hot paths.
func (a *Assignment) OwnerAt(i int32) int { return int(a.owner[i]) }

// Sizes returns the number of vertices per worker.
func (a *Assignment) Sizes() []int {
	s := make([]int, a.N)
	for _, w := range a.owner {
		s[w]++
	}
	return s
}

// EdgeCut returns the number of edges whose endpoints have different owners.
func (a *Assignment) EdgeCut() int {
	cut := 0
	for u, uo := range a.owner {
		for _, e := range a.G.OutAt(int32(u)) {
			if a.owner[e.To] != uo {
				cut++
			}
		}
	}
	return cut
}

// Balance returns max part size divided by the ideal size |V|/N; 1.0 is
// perfectly balanced.
func (a *Assignment) Balance() float64 {
	sizes := a.Sizes()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	ideal := float64(a.G.NumVertices()) / float64(a.N)
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// BorderCount returns the number of distinct vertices incident to a cut edge
// (on either side). These are exactly the nodes carrying update parameters.
func (a *Assignment) BorderCount() int {
	border := make([]bool, len(a.owner))
	n := 0
	mark := func(i int32) {
		if !border[i] {
			border[i] = true
			n++
		}
	}
	for u, uo := range a.owner {
		for _, e := range a.G.OutAt(int32(u)) {
			if a.owner[e.To] != uo {
				mark(int32(u))
				mark(e.To)
			}
		}
	}
	return n
}

// Validate checks that every vertex has an owner in range.
func (a *Assignment) Validate() error {
	if len(a.owner) != a.G.NumVertices() {
		return fmt.Errorf("partition: assignment covers %d of %d vertices", len(a.owner), a.G.NumVertices())
	}
	for i, w := range a.owner {
		if int(w) < 0 || int(w) >= a.N {
			return fmt.Errorf("partition: vertex %d owned by out-of-range worker %d", a.G.IDAt(int32(i)), w)
		}
	}
	return nil
}

// Strategy is a graph partitioning algorithm.
type Strategy interface {
	// Name identifies the strategy in the registry and in reports.
	Name() string
	// Partition assigns every vertex of g to one of n workers.
	Partition(g *graph.Graph, n int) (*Assignment, error)
}

// Default is the strategy a run or a server cuts with when none is named:
// engine.Options, server.Config and the CLIs' -strategy flags all read it.
var Default Strategy = Fennel{}

// Strategies returns the built-in strategy library in a stable order,
// mirroring the strategy picker of the demo's play panel.
func Strategies() []Strategy {
	return []Strategy{Hash{}, Range{}, Fennel{}, LDG{}, MetisLike{}, TwoD{}}
}

// ByName returns the built-in strategy with the given name.
func ByName(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	names := make([]string, 0, 5)
	for _, s := range Strategies() {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("partition: unknown strategy %q (have %v)", name, names)
}
