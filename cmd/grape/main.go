// Command grape is the CLI face of the demo's plug/play panels: list the
// PIE-program library, pick a program, a dataset (generated or loaded from a
// file), a partition strategy and a worker count, run the query, and read
// the answer plus the cost analytics.
//
// Examples:
//
//	grape -list
//	grape -program sssp -query source=0 -dataset road -rows 128 -cols 128 -workers 16 -strategy 2d
//	grape -program keyword -query "k=db,graph bound=4" -dataset social -n 20000 -keywords db,graph,ml
//	grape -program cc -input mygraph.txt -workers 8
//
// With -listen the run is distributed: the coordinator waits for -workers
// grape-worker processes to dial in over the socket transport, ships each
// its fragment, and byte analytics come from the actual wire encodings:
//
//	grape -listen 127.0.0.1:7001 -workers 4 -program sssp -query source=0
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grape"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/trace"
	"grape/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grape: ")

	// ^C cancels the run instead of killing the process mid-superstep: the
	// engine observes the context at the next barrier, releases (or, on a
	// wire run, aborts) its workers and returns, so deferred cleanup — the
	// unix socket file, the transport — still happens.
	ctx, cancelSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSig()

	var (
		list     = flag.Bool("list", false, "list the registered PIE programs and exit")
		program  = flag.String("program", "", "program name (see -list)")
		query    = flag.String("query", "", "query string (see each program's help)")
		workers  = flag.Int("workers", 0, "number of workers (0 = GOMAXPROCS; -listen needs it set)")
		strategy = flag.String("strategy", partition.Default.Name(), "partition strategy (hash|range|fennel|ldg|metis|2d)")
		steps    = flag.Bool("steps", false, "print the per-superstep PEval/IncEval breakdown")
		traceOut = flag.String("trace", "", "write the run's flight-recorder trace to this file as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
		listen   = flag.String("listen", "", "run distributed: listen here and wait for -workers grape-worker processes")
		network  = flag.String("network", "tcp", "socket kind for -listen: tcp|unix")
		accept   = flag.Duration("accept-timeout", 60*time.Second, "how long to wait for workers to dial in")

		input    = flag.String("input", "", "load graph from file (text format) instead of generating")
		directed = flag.Bool("directed", true, "treat -input file as directed")
		dataset  = flag.String("dataset", "road", "generated dataset: "+grape.Datasets)
		keywords = flag.String("keywords", "", "comma-separated vocabulary to sprinkle on vertices")
		sizes    grape.Dataset
	)
	sizes.Flags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("registered PIE programs (the GRAPE API library):")
		for _, e := range grape.Library() {
			fmt.Printf("  %-8s %s\n           query: %s\n", e.Name, e.Description, e.QueryHelp)
		}
		return
	}
	if *program == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *listen != "" && *workers < 1 {
		// a fleet's size is not this machine's core count
		fmt.Fprintln(os.Stderr, "grape: -listen needs -workers: the number of grape-worker processes to wait for")
		flag.Usage()
		os.Exit(2)
	}

	// Resolve -program/-query through the shared parser (the same code path
	// the serving layer and tests use) before spending time generating the
	// dataset: typos fail fast, and the canonical form is what a result
	// cache would key on. Every registered program has a parser — MakeEntry
	// derives Run and Parse from the same spec.
	pq, err := grape.ParseQuery(*program, *query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s %s\n", pq.Program, pq.Canonical)

	g, err := buildGraph(*input, *directed, *dataset, &sizes)
	if err != nil {
		log.Fatal(err)
	}
	if *keywords != "" {
		grape.AttachKeywords(g, strings.Split(*keywords, ","), 2, 0.05, sizes.Seed)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	strat, err := grape.StrategyByName(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	opts := grape.Options{Workers: *workers, Strategy: strat}
	// log.Fatal skips deferred closes, which would leave a stale unix
	// socket file behind; route fatal errors through the cleanup instead.
	cleanup := func() {}
	fatal := func(err error) {
		cleanup()
		log.Fatal(err)
	}
	if *listen != "" {
		fmt.Printf("listening on %s %s, waiting for %d workers...\n", *network, *listen, *workers)
		tr, ln, err := transport.Listen(*network, *listen, *workers, *accept)
		if err != nil {
			log.Fatal(err)
		}
		cleanup = func() {
			tr.Close()
			ln.Close()
		}
		defer cleanup()
		fmt.Printf("%d workers connected\n", *workers)
		opts.Transport = tr
		// Real processes can die mid-run; recover from superstep
		// checkpoints by reassigning a dead worker's fragments to the
		// survivors instead of failing the run.
		opts.Recover = true
	}
	// With -trace, a flight recorder rides the run context; the engine fills
	// in per-superstep spans and per-worker phase timings (shipped back over
	// the wire on distributed runs), and the trace lands on disk afterwards.
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder("run-1")
		ctx = trace.WithRecorder(ctx, rec)
	}
	res, stats, err := grape.RunProgram(ctx, *program, g, opts, *query)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		run := rec.Snapshot()
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(f, run); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fatal(fmt.Errorf("writing trace %s: %w", *traceOut, err))
		}
		fmt.Printf("trace: %d superstep spans written to %s\n", len(run.Steps), *traceOut)
	}

	printResult(*program, res)
	fmt.Printf("\nanalytics: %d workers, %d supersteps, %d messages, %.4f MB (wall %v)\n",
		stats.Workers, stats.Supersteps, stats.Messages, stats.MB(), stats.WallTime)
	for _, r := range stats.Recoveries {
		fmt.Printf("recovered: fragment %d reassigned to worker %d at superstep %d\n", r.Fragment, r.Host, r.Superstep)
	}
	if *steps {
		fmt.Println()
		stats.StepReport(os.Stdout)
	}
}

func buildGraph(input string, directed bool, dataset string, sizes *grape.Dataset) (*grape.Graph, error) {
	if input == "" {
		return sizes.Build(dataset)
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadText(f, directed)
}

func printResult(program string, res any) {
	switch r := res.(type) {
	case map[grape.ID]float64:
		fmt.Printf("result: %d vertices with finite values\n", len(r))
		printSample(r, 5)
	case map[grape.ID]grape.ID:
		comps := map[grape.ID]int{}
		for _, c := range r {
			comps[c]++
		}
		fmt.Printf("result: %d components over %d vertices\n", len(comps), len(r))
	case grape.SimResult:
		fmt.Printf("result: simulation sets per pattern vertex:\n")
		for u, vs := range r {
			fmt.Printf("  pattern %d: %d data vertices\n", u, len(vs))
		}
	case []grape.Match:
		fmt.Printf("result: %d matches\n", len(r))
		for i, m := range r {
			if i == 5 {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  %v\n", m)
		}
	case []grape.KeywordMatch:
		fmt.Printf("result: %d roots\n", len(r))
		for i, m := range r {
			if i == 5 {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  root %d score %.2f\n", m.Root, m.Score)
		}
	case grape.CFResult:
		fmt.Printf("result: RMSE %.4f over %d factor vectors\n", r.RMSE, len(r.Factors))
	default:
		fmt.Printf("result: %v\n", res)
	}
}

func printSample[V any](m map[grape.ID]V, k int) {
	i := 0
	for id, v := range m {
		if i == k {
			fmt.Println("  ...")
			return
		}
		fmt.Printf("  %d: %v\n", id, v)
		i++
	}
}
