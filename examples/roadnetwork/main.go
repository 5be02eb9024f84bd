// Command roadnetwork walks through the demo's analytics panel on the
// Table 1 workload: SSSP over a road network, sweeping worker counts and
// partition strategies, reporting computation and communication costs —
// the experience of Fig. 3(4).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"grape"
)

func main() {
	rows := flag.Int("rows", 128, "grid rows")
	cols := flag.Int("cols", 128, "grid cols")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	g := grape.RoadGrid(*rows, *cols, *seed)
	fmt.Printf("road network: %d intersections, %d segments\n\n", g.NumVertices(), g.NumEdges())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tstrategy\tsupersteps\tcrit work\tcomm MB\tmessages")
	for _, n := range []int{4, 8, 16, 24} {
		for _, name := range []string{"hash", "metis", "2d"} {
			strat, err := grape.StrategyByName(name)
			if err != nil {
				log.Fatal(err)
			}
			_, st, err := grape.RunSSSP(context.Background(), g, 0, grape.Options{Workers: n, Strategy: strat})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.4f\t%d\n",
				n, name, st.Supersteps, st.CriticalWork(), st.MB(), st.Messages)
		}
	}
	tw.Flush()

	fmt.Println("\nConnected components on the same network:")
	comp, st, err := grape.RunCC(context.Background(), g, grape.Options{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	distinct := map[grape.ID]bool{}
	for _, c := range comp {
		distinct[c] = true
	}
	fmt.Printf("components: %d (expected 1 for a grid), %d supersteps, %.4f MB\n",
		len(distinct), st.Supersteps, st.MB())
}
