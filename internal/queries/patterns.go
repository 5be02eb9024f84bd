package queries

import (
	"fmt"
	"sort"

	"grape/internal/gen"
	"grape/internal/graph"
)

// Patterns returns the named pattern graphs available to the sim/subiso/gpar
// registry entries — the "enter queries Q ∈ Q" part of the play panel.
// Pattern vertex IDs are small integers; labels reference the generators'
// vocabulary (person/product for social-commerce graphs, empty for unlabeled
// graphs).
func Patterns() map[string]*graph.Graph {
	ps := make(map[string]*graph.Graph)

	// chain3: x -> y -> z (unlabeled)
	chain := graph.NewBuilder()
	chain.AddVertex(0, "")
	chain.AddVertex(1, "")
	chain.AddVertex(2, "")
	chain.AddEdge(0, 1, 1)
	chain.AddEdge(1, 2, 1)
	ps["chain3"] = chain.Graph()

	// triangle: directed 3-cycle (unlabeled)
	tri := graph.NewBuilder()
	tri.AddVertex(0, "")
	tri.AddVertex(1, "")
	tri.AddVertex(2, "")
	tri.AddEdge(0, 1, 1)
	tri.AddEdge(1, 2, 1)
	tri.AddEdge(2, 0, 1)
	ps["triangle"] = tri.Graph()

	// star3: hub with three out-neighbors (unlabeled)
	star := graph.NewBuilder()
	star.AddVertex(0, "")
	for i := graph.ID(1); i <= 3; i++ {
		star.AddVertex(i, "")
		star.AddEdge(0, i, 1)
	}
	ps["star3"] = star.Graph()

	// follows-recommend: person -follow-> person -recommend-> product
	fr := graph.NewBuilder()
	fr.AddVertex(0, gen.LabelPerson)
	fr.AddVertex(1, gen.LabelPerson)
	fr.AddVertex(2, gen.LabelProduct)
	fr.AddLabeledEdge(0, 1, 1, gen.EdgeFollow)
	fr.AddLabeledEdge(1, 2, 1, gen.EdgeRecommend)
	ps["follows-recommend"] = fr.Graph()

	// co-recommend: two people who both recommend the same product and one
	// follows the other.
	co := graph.NewBuilder()
	co.AddVertex(0, gen.LabelPerson)
	co.AddVertex(1, gen.LabelPerson)
	co.AddVertex(2, gen.LabelProduct)
	co.AddLabeledEdge(0, 1, 1, gen.EdgeFollow)
	co.AddLabeledEdge(0, 2, 1, gen.EdgeRecommend)
	co.AddLabeledEdge(1, 2, 1, gen.EdgeRecommend)
	ps["co-recommend"] = co.Graph()

	return ps
}

// PatternByName resolves a pattern name, with a helpful error listing the
// library.
func PatternByName(name string) (*graph.Graph, error) {
	ps := Patterns()
	if p, ok := ps[name]; ok {
		return p, nil
	}
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("queries: unknown pattern %q (have %v)", name, names)
}
