// Command continuous shows GRAPE's incremental step doing what it was
// defined for: answering a standing query over an evolving graph. The paper
// defines IncEval over updates M to G — Q(G ⊕ M) = Q(G) ⊕ ΔO — so after the
// initial fixpoint, each batch of road openings (edge insertions) costs only
// the bounded incremental step, not a recomputation.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"grape"
	"grape/internal/queries"
)

func main() {
	g := grape.RoadGrid(100, 100, 3)
	strat, err := grape.StrategyByName("2d")
	if err != nil {
		log.Fatal(err)
	}
	session, dists, initStats, err := grape.NewSession(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0}, grape.Options{Workers: 16, Strategy: strat})
	if err != nil {
		log.Fatal(err)
	}
	far := grape.ID(100*100 - 1)
	fmt.Printf("initial run: %d supersteps, %d work units; dist to far corner %.1f\n",
		initStats.Supersteps, initStats.TotalWork(), dists[far])

	// Traffic control opens a batch of shortcuts every round; the standing
	// query keeps the distance map current, paying only for the affected
	// region.
	rng := rand.New(rand.NewSource(4))
	for round := 1; round <= 5; round++ {
		var batch []grape.EdgeUpdate
		for i := 0; i < 8; i++ {
			from := grape.ID(rng.Intn(100 * 100))
			to := grape.ID(rng.Intn(100 * 100))
			if from == to {
				continue
			}
			batch = append(batch, grape.EdgeUpdate{From: from, To: to, W: 1 + rng.Float64()})
		}
		dists, stats, err := session.Update(context.Background(), batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: +%d edges -> %2d supersteps, %8d work units (%.2f%% of initial), far corner now %.1f\n",
			round, len(batch), stats.Supersteps, stats.TotalWork(),
			100*float64(stats.TotalWork())/float64(initStats.TotalWork()), dists[far])
	}
}
