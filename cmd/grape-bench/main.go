// Command grape-bench regenerates every table and figure of the paper's
// evaluation from this reproduction, one internal/experiments function each.
// -exp picks the experiment; -workers, -rows, -cols, -social and -seed set
// its scale:
//
//	table1     Table 1 — SSSP on the road network, four systems
//	tablecc    Table 1 analogue for CC — four systems on the social graph
//	partition  Section 3 — partition-strategy impact on SSSP
//	scaleup    Fig. 3(4) — GRAPE analytics while varying workers
//	bounded    Example 1(d) — bounded IncEval vs full recomputation
//	gpar       Fig. 4 — social-media marketing, more workers = faster
//	simtheorem Simulation Theorem — Pregel programs on GRAPE, superstep parity
//	index      graph-level optimization — keyword search with/without index
//	library    Section 3 — all six registered query classes end to end
//	reuse      Partition Manager — partition per query vs once
//	gap        why Table 1's communication ratio grows with graph size
//	all        everything above
//
// Numbers are exact counts: supersteps, critical-path work units, messages
// and bytes crossing worker boundaries. Wall-time and allocation
// measurements of the system live in benchmark/ (BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"grape/internal/experiments"
)

// experimentNames are the -exp values, in the order -exp all runs them.
var experimentNames = []string{"table1", "tablecc", "partition", "scaleup", "bounded", "gpar", "simtheorem", "index", "library", "reuse", "gap"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("grape-bench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|")+"|all")
		workers = flag.Int("workers", 24, "worker count for fixed-worker experiments")
		rows    = flag.Int("rows", 128, "road grid rows")
		cols    = flag.Int("cols", 128, "road grid cols")
		socialN = flag.Int("social", 20000, "social graph vertices")
		seed    = flag.Int64("seed", 1, "dataset seed")
	)
	flag.Parse()

	ctx := context.Background()
	sc := experiments.DefaultScale()
	sc.RoadRows, sc.RoadCols, sc.SocialN, sc.Seed = *rows, *cols, *socialN, *seed

	out := os.Stdout

	run := func(name string) {
		switch name {
		case "table1":
			rows, err := experiments.Table1(ctx, sc, *workers)
			exitIf(err)
			experiments.PrintRows(out, fmt.Sprintf("Table 1: SSSP on road network (%dx%d grid, %d workers)", sc.RoadRows, sc.RoadCols, *workers), rows)
			fmt.Fprintln(out, "paper shape: GRAPE < Blogel < GraphLab, Giraph in supersteps, messages and MB; GRAPE ships orders of magnitude less data")
		case "partition":
			rows, err := experiments.PartitionImpact(ctx, sc, 16)
			exitIf(err)
			experiments.PrintRows(out, "Partition impact: SSSP on social graph, 16 workers (paper: METIS 18.3s/7.5M msgs vs streaming 30s/40M)", rows)
		case "scaleup":
			rows, err := experiments.ScaleUp(ctx, sc, []int{4, 8, 16, 24, 32})
			exitIf(err)
			experiments.PrintRows(out, "Scale-up: GRAPE SSSP and CC, growing workers (Fig. 3(4))", rows)
		case "bounded":
			bounded, recompute, steps, err := experiments.BoundedIncEval(ctx, sc, *workers)
			exitIf(err)
			experiments.PrintRows(out, "Bounded IncEval vs recompute (Example 1(d))", []experiments.Row{bounded, recompute})
			fmt.Fprintln(out, "per-superstep critical-path work (bounded vs recompute; fragment ≈", steps[0].FragmentSz, "vertices):")
			for _, s := range steps {
				fmt.Fprintf(out, "  superstep %3d: bounded %8d   recompute %8d\n", s.Superstep, s.MaxWork, s.RecomputeWork)
			}
		case "gpar":
			rows, err := experiments.GPARScale(ctx, sc, []int{1, 2, 4, 8, 16})
			exitIf(err)
			experiments.PrintRows(out, "GPAR social-media marketing (Fig. 4): more workers, faster", rows)
		case "simtheorem":
			rows, err := experiments.SimTheorem(ctx, sc, 8)
			exitIf(err)
			experiments.PrintRows(out, "Simulation Theorem: Pregel programs on GRAPE, superstep parity", rows)
		case "index":
			rows, err := experiments.IndexAblation(ctx, sc, 8)
			exitIf(err)
			experiments.PrintRows(out, "Graph-level optimization: keyword search with/without inverted index", rows)
		case "library":
			rows, err := experiments.QueryLibrary(ctx, sc, 8)
			exitIf(err)
			experiments.PrintRows(out, "Query-class library: all six registered PIE programs", rows)
		case "tablecc":
			rows, err := experiments.TableCC(ctx, sc, *workers)
			exitIf(err)
			experiments.PrintRows(out, "Table 1 analogue for CC: four systems on the social graph", rows)
		case "reuse":
			perQuery, reused, err := experiments.LayoutReuse(ctx, sc, 16, 8)
			exitIf(err)
			experiments.PrintRows(out, "Partition Manager amortization: 8 queries, partition per query vs once", []experiments.Row{perQuery, reused})
		case "gap":
			rows, err := experiments.ScalingGap(ctx, []int{32, 64, 128}, *workers)
			exitIf(err)
			fmt.Fprintln(out, "\n== Scaling gap: why Table 1's absolute ratios grow with graph size ==")
			for _, r := range rows {
				fmt.Fprintf(out, "grid %4dx%-4d  giraph %10.4f MB (%4d steps)   grape %8.4f MB (%3d steps)   ratio %8.1fx\n",
					r.GridSide, r.GridSide, r.GiraphMB, r.GiraphSteps, r.GrapeMB, r.GrapeSteps, r.Ratio)
			}
		default:
			exitIf(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *exp == "all" {
		for _, name := range experimentNames {
			run(name)
		}
		return
	}
	run(*exp)
}

func exitIf(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
