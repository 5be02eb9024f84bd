// Command quickstart is the smallest complete GRAPE program: build a graph,
// run the SSSP PIE program on 8 workers, inspect the answer and the run's
// cost profile.
package main

import (
	"context"
	"fmt"
	"log"

	"grape"
)

func main() {
	// A 64x64 weighted road grid (≈4k intersections, ≈16k road segments).
	g := grape.RoadGrid(64, 64, 42)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Shortest distances from the top-left corner, computed by the PIE
	// program of the paper's Example 1: Dijkstra as PEval, bounded
	// incremental relaxation as IncEval, min as the aggregate.
	dists, stats, err := grape.RunSSSP(context.Background(), g, 0, grape.Options{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}

	corner := grape.ID(64*64 - 1)
	fmt.Printf("distance to opposite corner (%d): %.2f\n", corner, dists[corner])
	fmt.Printf("reached %d vertices\n", len(dists))

	fmt.Printf("run: %d supersteps, %d messages, %.4f MB shipped (wall %v)\n",
		stats.Supersteps, stats.Messages, stats.MB(), stats.WallTime)

	// The same engine, different partition strategy: structure-aware
	// partitioning cuts communication (the Section 3 partition experiment).
	for _, name := range []string{"hash", "2d"} {
		strat, err := grape.StrategyByName(name)
		if err != nil {
			log.Fatal(err)
		}
		_, st, err := grape.RunSSSP(context.Background(), g, 0, grape.Options{Workers: 8, Strategy: strat})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strategy %-6s -> %2d supersteps, %8.4f MB\n", name, st.Supersteps, st.MB())
	}
}
