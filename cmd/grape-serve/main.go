// Command grape-serve is the resident query service: it loads named graphs
// once, partitions each at most once per expansion depth (hops) under the
// -strategy and -workers it was started with, keeps the frozen layouts
// resident, and answers concurrent HTTP/JSON queries over them — the serving
// shape of the paper's Fig. 2 system, where a stream of user queries hits a
// long-lived engine instead of a one-shot CLI run.
//
// Examples:
//
//	grape-serve -addr :8080 -preload road,social
//	grape-serve -addr :8080 -preload road -data ./graphdata
//	curl -s localhost:8080/query -d '{"graph":"road","program":"sssp","query":"source=0"}'
//	curl -s localhost:8080/graphs
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/update -d '{"graph":"road","edges":[{"from":0,"to":99,"w":0.5}]}'
//
// API:
//
//	POST /query   {"graph","program","query","nocache?"}
//	POST /update  {"graph","edges":[{"from","to","w","label?"}]}  (bumps the graph epoch)
//	GET  /graphs  resident graphs with sizes and epochs
//	GET  /stats   serving metrics: latency histogram, queue depth, cache hit rate
//	GET  /healthz liveness + resident graph count (the readiness probe)
//	GET  /metrics Prometheus text exposition of the serving metrics
//	GET  /debug/runs        flight-recorder index: retained run traces + events
//	GET  /debug/runs/{id}   one run as Chrome trace-event JSON (Perfetto)
//
// Observability: every served query and mutation emits one structured JSON
// log record on stderr (log/slog; -log-level tunes verbosity, debug adds
// engine run start records), every engine run is flight-recorded behind
// /debug/runs, and -debug-addr serves net/http/pprof on a side listener
// kept off the public API address.
//
// A query's context threads from the HTTP request through admission into
// the engine run: a disconnected client or an expired deadline cancels the
// run at its next superstep barrier and frees its workers.
//
// Durability: -data DIR snapshots every resident graph (binary CSR format,
// mmap-ed zero-copy where supported) and write-ahead journals every update
// batch — fsync-ed before the mutation applies. On restart the graphs in
// DIR recover to their exact pre-crash epoch via snapshot + journal replay
// (names being recovered are skipped by -preload), and a background
// compactor re-snapshots once a journal crosses -compact-records/-compact-bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"grape"
	"grape/internal/partition"
	"grape/internal/server"
	dstore "grape/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers  = flag.Int("workers", 0, "fragments per resident layout (0 = GOMAXPROCS)")
		strategy = flag.String("strategy", partition.Default.Name(), "partition strategy of every resident layout (hash|range|fennel|ldg|metis|2d)")
		inflight = flag.Int("inflight", 0, "max concurrently running queries (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "max queries waiting for a run slot")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-query deadline (queue wait + run)")
		cache    = flag.Int("cache", 256, "result cache entries (-1 disables)")
		data     = flag.String("data", "", "durable data directory: binary snapshots + write-ahead journals; graphs recover here on restart")
		compactN = flag.Int("compact-records", 0, "journal records that trigger compaction (0 = default 4096, <0 disables)")
		compactB = flag.Int64("compact-bytes", 0, "journal bytes that trigger compaction (0 = default 64MiB, <0 disables)")
		logLevel = flag.String("log-level", "info", "structured log verbosity: debug|info|warn|error")
		flight   = flag.Int("flight", 64, "flight-recorder retention: the most recent N run traces stay fetchable at /debug/runs")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this side address (empty = disabled)")

		preload  = flag.String("preload", "", "comma-separated generated datasets to load: "+grape.Datasets)
		keywords = flag.String("keywords", "db,graph,ml", "vocabulary sprinkled on the preloaded social graph (for keyword queries)")
		sizes    grape.Dataset
	)
	sizes.Flags(flag.CommandLine)
	flag.Parse()

	// One structured JSON record per served query, mutation and engine run
	// on stderr; stdout stays reserved for the "listening on" readiness line
	// that orchestration (and the serve-smoke test) parses.
	lg := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: parseLevel(*logLevel)}))
	fatal := func(err error) {
		lg.Error("fatal", "err", err.Error())
		os.Exit(1)
	}

	if _, err := grape.StrategyByName(*strategy); err != nil {
		fatal(err)
	}
	cfg := server.Config{
		Workers:      *workers,
		Strategy:     *strategy,
		MaxInFlight:  *inflight,
		MaxQueue:     *queue,
		QueryTimeout: *timeout,
		CacheEntries: *cache,
		Logger:       lg,
		FlightRuns:   *flight,
	}
	if *data != "" {
		ds, err := dstore.Open(*data)
		if err != nil {
			fatal(err)
		}
		cfg.Durable = ds
		cfg.CompactRecords = *compactN
		cfg.CompactBytes = *compactB
	}
	s := server.New(cfg)

	// Crash recovery before anything else: every graph with durable state
	// comes back resident at its pre-crash epoch (snapshot + journal replay),
	// and the preload below skips those names — a recovered graph's journaled
	// mutations must not be clobbered by a freshly generated dataset.
	recovered := map[string]bool{}
	if cfg.Durable != nil {
		infos, err := s.RecoverAll(context.Background())
		if err != nil {
			fatal(err)
		}
		for _, info := range infos {
			recovered[info.Graph] = true
		}
		lg.Info("durable store attached", "dir", *data, "recovered", len(infos))
	}

	for _, name := range splitList(*preload) {
		if recovered[name] {
			lg.Info("preload skipped: recovered from durable store", "graph", name)
			continue
		}
		g, err := sizes.Build(name)
		if err != nil {
			fatal(err)
		}
		if name == "social" && *keywords != "" {
			grape.AttachKeywords(g, splitList(*keywords), 2, 0.05, sizes.Seed)
		}
		if err := s.AddGraph(name, g); err != nil {
			fatal(err)
		}
		lg.Info("preloaded", "graph", name, "vertices", g.NumVertices(), "edges", g.NumEdges())
	}

	if *debug != "" {
		go serveDebug(lg, *debug)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// the actual address matters when -addr asks for port 0 (tests)
	fmt.Printf("grape-serve: listening on http://%s\n", ln.Addr())
	fatal(http.Serve(ln, s.Handler()))
}

func parseLevel(s string) slog.Level {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		fmt.Fprintf(os.Stderr, "grape-serve: bad -log-level %q (debug|info|warn|error)\n", s)
		os.Exit(2)
	}
	return lvl
}

// serveDebug exposes net/http/pprof on its own listener so profiling stays
// off the public API address (and can be firewalled separately).
func serveDebug(lg *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	lg.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		lg.Error("pprof server failed", "err", err.Error())
	}
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
