package grape_test

import (
	"context"
	"fmt"

	"grape"
	"grape/internal/queries"
)

// The canonical GRAPE workflow: build a graph, pick a worker count and a
// partition strategy, run a registered PIE program.
func ExampleRunSSSP() {
	b := grape.NewBuilder()
	b.AddEdge(0, 1, 4)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 1, 2)
	b.AddEdge(1, 3, 1)

	dists, _, err := grape.RunSSSP(context.Background(), b.Graph(), 0, grape.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(dists[1], dists[3])
	// Output: 3 4
}

// Connected components label every vertex with the smallest vertex ID in
// its weakly connected component.
func ExampleRunCC() {
	b := grape.NewBuilder()
	b.AddEdge(5, 9, 1)
	b.AddEdge(9, 7, 1)
	b.AddEdge(2, 4, 1)

	comp, _, err := grape.RunCC(context.Background(), b.Graph(), grape.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(comp[7], comp[4])
	// Output: 5 2
}

// Subgraph isomorphism ships d-hop neighborhoods in PEval and finishes in a
// single parallel superstep.
func ExampleRunSubIso() {
	b := grape.NewBuilder()
	b.AddVertex(1, "person")
	b.AddVertex(2, "person")
	b.AddVertex(3, "product")
	b.AddLabeledEdge(1, 2, 1, "follow")
	b.AddLabeledEdge(2, 3, 1, "recommend")

	pattern, err := grape.PatternByName("follows-recommend")
	if err != nil {
		panic(err)
	}
	matches, stats, err := grape.RunSubIso(context.Background(), b.Graph(), pattern, 0, grape.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(matches), stats.Supersteps)
	// Output: 1 1
}

// The registry drives programs by name with textual queries — the demo's
// play panel.
func ExampleRunProgram() {
	g := grape.RoadGrid(8, 8, 1)
	res, _, err := grape.RunProgram(context.Background(), "sssp", g, grape.Options{Workers: 2}, "source=0")
	if err != nil {
		panic(err)
	}
	dists := res.(map[grape.ID]float64)
	fmt.Println(dists[0])
	// Output: 0
}

// Sessions answer a standing query over an evolving graph: edge insertions
// re-run only the bounded incremental step.
func ExampleNewSession() {
	b := grape.NewBuilder()
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 10)

	session, dists, _, err := grape.NewSession(context.Background(), b.Graph(), queries.SSSP{}, queries.SSSPQuery{Source: 0}, grape.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(dists[2])

	dists, _, err = session.Update(context.Background(), []grape.EdgeUpdate{{From: 0, To: 2, W: 3}})
	if err != nil {
		panic(err)
	}
	fmt.Println(dists[2])
	// Output:
	// 20
	// 3
}

// Strategies lists the built-in partition library of the play panel.
func ExampleStrategies() {
	for _, s := range grape.Strategies() {
		fmt.Println(s.Name())
	}
	// Output:
	// hash
	// range
	// fennel
	// ldg
	// metis
	// 2d
}
