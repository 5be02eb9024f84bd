// Package grape is a Go reproduction of GRAPE, the parallel graph query
// engine of Fan et al. (SIGMOD 2017 / VLDB 2017 demo): a system that
// parallelizes *whole sequential graph algorithms* via a simultaneous
// fixpoint of partial evaluation (PEval) and bounded incremental evaluation
// (IncEval) over graph fragments, assembled into a global answer (Assemble).
//
// This package is the public facade: graph construction and generators, the
// partition-strategy library, the seven registered query classes (SSSP, CC,
// Sim, SubIso, Keyword, CF, TriCount), graph pattern association rules for
// social-media marketing, and the registry for plugging in new PIE programs.
// The engine internals live under internal/; downstream code should only
// need this package.
//
// Quick start:
//
//	g := grape.RoadGrid(64, 64, 1)
//	dists, stats, err := grape.RunSSSP(ctx, g, 0, grape.Options{})
//
// The zero Options cut the graph into one fragment per core that runs it
// (runtime.GOMAXPROCS(0)) with the default strategy, fennel; set Workers or
// Strategy to choose. ServeConfig defaults the same way.
//
// To plug in your own sequential algorithm, implement engine.Program's three
// functions and the update-parameter declaration; see examples/plugplay.
//
// Every run entry point takes a context.Context first: cancel it (or give
// it a deadline) and the run stops at its next superstep barrier, freeing
// its workers — on the in-process bus and across the socket transport
// alike. Pass context.Background() when the run should be unbounded. See
// ARCHITECTURE.md's "Cancellation & deadlines".
//
// Runs default to the in-process bus (workers are goroutines). Every
// registered query also encodes for the wire, so the same run can be
// distributed across worker OS processes over TCP or Unix sockets: see
// ARCHITECTURE.md and the README's "Running distributed" section
// (cmd/grape -listen, cmd/grape-worker).
package grape

import (
	"context"
	"flag"
	"fmt"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/gpar"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/seq"
	"grape/internal/server"
)

// Core types re-exported for building and running queries.
type (
	// Graph is the labeled, weighted graph all engines operate on.
	Graph = graph.Graph
	// Builder builds a Graph from nothing; Builder.Graph returns it.
	Builder = graph.Builder
	// ID identifies a vertex.
	ID = graph.ID
	// Edge is one adjacency entry.
	Edge = graph.Edge
	// Options configures an engine run (workers, partition strategy,
	// superstep cap, optional wire transport for distributed runs). Zero
	// Workers is runtime.GOMAXPROCS(0); a nil Strategy is the fennel
	// partitioner, the one strategy default.
	Options = engine.Options
	// Stats reports what a run measured: supersteps, per-worker work,
	// messages and bytes shipped, wall time.
	Stats = metrics.Stats
	// Strategy is a graph partitioner.
	Strategy = partition.Strategy
	// Entry is a PIE program registered in the library.
	Entry = engine.Entry
	// Match is a subgraph-isomorphism embedding (pattern vertex -> data
	// vertex).
	Match = seq.Match
	// KeywordMatch is one keyword-search answer.
	KeywordMatch = seq.KeywordMatch
	// CFResult is the collaborative-filtering model and fit.
	CFResult = queries.CFResult
	// SimResult maps each pattern vertex to the data vertices simulating it.
	SimResult = queries.SimResult
	// Rule is a graph pattern association rule Q(x,y) ⇒ p(x,y).
	Rule = gpar.Rule
	// RuleResult is the evaluation of a Rule: candidates and confidence.
	RuleResult = gpar.Result
)

// Plug-in surface: implement Program (a PIE program — PEval, IncEval,
// Assemble plus the update-parameter declaration) and hand it to Run; see
// examples/plugplay for a complete custom program.
type (
	// Program is a PIE program for query type Q, update-parameter value
	// type V, and result type R.
	Program[Q, V, R any] = engine.Program[Q, V, R]
	// Context is a worker's view of its fragment during a run.
	Context[V any] = engine.Context[V]
	// VarSpec declares a program's update parameters: default value,
	// aggregate, optional partial order. Equality, wire format and traffic
	// size follow from the value type (engine's value table).
	VarSpec[V any] = engine.VarSpec[V]
	// Fragment is the subgraph a worker computes on.
	Fragment = partition.Fragment
)

// Run executes a PIE program on g: partition, parallel PEval, incremental
// IncEval to the simultaneous fixpoint, Assemble — the workflow of the
// paper's Fig. 1. ctx bounds the run: cancellation or deadline expiry is
// honored at every superstep barrier.
func Run[Q, V, R any](ctx context.Context, g *Graph, prog Program[Q, V, R], q Q, opts Options) (R, *Stats, error) {
	return engine.Run(ctx, g, prog, q, opts)
}

// Register adds a PIE program to the library so RunProgram can play it by
// name. Build the Entry with MakeEntry — Register rejects entries with
// missing hooks.
func Register(e Entry) { engine.Register(e) }

// EntrySpec is the typed source MakeEntry derives an Entry from: the PIE
// program, its query-string parse/canonical pair and, optionally, its
// ground truth (Reference, the sequential answer, and Agree, the rule an
// engine answer is held to).
type EntrySpec[Q, V, R any] = engine.EntrySpec[Q, V, R]

// MakeEntry derives a registry Entry's full hook set (Run, Parse, Resident,
// Wire when the program encodes its query, and Check when the spec sets
// Reference and Agree) from one typed spec, so the CLI, the serving layer,
// distributed workers and tests cannot disagree about what a query string
// means or what a correct answer is. See examples/plugplay.
func MakeEntry[Q, V, R any](s EntrySpec[Q, V, R]) Entry { return engine.MakeEntry(s) }

// Continuous queries over evolving graphs: the paper defines IncEval over
// updates M to G; a Session retains the distributed state of a query so
// that an update batch re-runs only the bounded incremental step.
type (
	// Session retains a query's fragments and partial results across graph
	// updates.
	Session[Q, V, R any] = engine.Session[Q, V, R]
	// EdgeUpdate is one edge insertion (or weight decrease) or, with Del
	// set, one edge deletion.
	EdgeUpdate = engine.EdgeUpdate
)

// NewSession starts a continuous query: it runs the initial fixpoint and
// returns a Session whose Update method applies batches of edge insertions
// and deletions. Every program accepts updates: a program that implements
// engine.Repairer (the built-in SSSP, CC, Sim and Keyword do) or
// engine.SessionPatcher (SubIso, TriCount) brings its answer up to date
// incrementally, and any batch that no hook takes reseeds the session from
// the updated graph. ctx bounds the initial fixpoint; each Update carries its
// own. The session owns g: g itself never changes, and Session.Graph returns
// the current graph, every accepted batch spliced in.
func NewSession[Q, V, R any](ctx context.Context, g *Graph, prog Program[Q, V, R], q Q, opts Options) (*Session[Q, V, R], R, *Stats, error) {
	return engine.NewSession(ctx, g, prog, q, opts)
}

// New returns an empty directed graph. Each mutator call on a Graph
// (AddVertex, AddEdge, AddLabeledEdge, RemoveEdge) builds a new CSR form,
// so it costs O(|V|+|E|): build a graph in bulk with NewBuilder.
func New() *Graph { return graph.New() }

// NewUndirected returns an empty undirected graph; its mutators cost as New's
// do.
func NewUndirected() *Graph { return graph.NewUndirected() }

// NewBuilder returns a builder of a directed graph.
func NewBuilder() *Builder { return graph.NewBuilder() }

// NewUndirectedBuilder returns a builder of an undirected graph.
func NewUndirectedBuilder() *Builder { return graph.NewUndirectedBuilder() }

// Strategies lists the built-in partition strategies (hash, range, fennel,
// ldg, metis-like, 2d). A run or server that names none cuts with fennel.
func Strategies() []Strategy { return partition.Strategies() }

// StrategyByName resolves a built-in partition strategy.
func StrategyByName(name string) (Strategy, error) { return partition.ByName(name) }

// Library lists the registered PIE programs — the demo's plug panel.
func Library() []Entry { return engine.Library() }

// RunProgram looks up a registered program by name and runs it with a
// textual query (see each entry's QueryHelp) — the demo's play panel. The
// result is the program's erased result value; use RunProgramAs to get it
// typed.
func RunProgram(ctx context.Context, name string, g *Graph, opts Options, query string) (any, *Stats, error) {
	e, err := engine.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return e.Run(ctx, g, opts, query)
}

// RunProgramAs is RunProgram with the result asserted to R, so callers of
// registry-driven runs stop unpacking `any` by hand:
//
//	dists, st, err := grape.RunProgramAs[map[grape.ID]float64](ctx, "sssp", g, opts, "source=0")
func RunProgramAs[R any](ctx context.Context, name string, g *Graph, opts Options, query string) (R, *Stats, error) {
	res, st, err := RunProgram(ctx, name, g, opts, query)
	if err != nil {
		var zero R
		return zero, st, err
	}
	r, err := ResultAs[R](res)
	if err != nil {
		return r, st, fmt.Errorf("grape: program %q: %w", name, err)
	}
	return r, st, nil
}

// ResultAs asserts an erased result (RunProgram's return, a QueryResponse's
// Result) to its typed form, with an error naming both types instead of a
// panic when the caller guessed wrong.
func ResultAs[R any](res any) (R, error) {
	r, ok := res.(R)
	if !ok {
		return r, fmt.Errorf("result has type %T, want %T", res, r)
	}
	return r, nil
}

// Serving: the resident query runtime of the paper's Fig. 2 system — load
// and partition once, answer many concurrent queries. cmd/grape-serve wraps
// it in an HTTP binary; these types let Go programs embed the same service
// (or drive resident layouts directly).
type (
	// Layout is a graph cut into fragments, reusable across many runs.
	Layout = partition.Layout
	// ParsedQuery is a textual query resolved into its typed form plus the
	// canonical (cache-key) string and required fragment expansion.
	ParsedQuery = engine.ParsedQuery
	// ResidentRunner answers parsed queries of one program over one
	// resident layout, pooling per-run scratch. Safe for concurrent use.
	ResidentRunner = engine.ResidentRunner
	// QueryServer is the embeddable serving runtime: named graphs with
	// epochs, cached layouts, admission control, a result cache, and an
	// HTTP handler.
	QueryServer = server.Server
	// ServeConfig tunes a QueryServer.
	ServeConfig = server.Config
	// QueryRequest is one query against a QueryServer.
	QueryRequest = server.QueryRequest
	// QueryResponse is a served answer.
	QueryResponse = server.QueryResponse
)

// ParseQuery resolves a textual query against a registered program — the
// same parser the CLI, the serving layer and tests share.
func ParseQuery(program, query string) (ParsedQuery, error) {
	return queries.Parse(program, query)
}

// BuildLayout partitions g once for many subsequent runs (pass it via
// Options.Layout, or hand it to NewResidentRunner for concurrent serving).
func BuildLayout(g *Graph, opts Options) (*Layout, error) {
	return engine.BuildLayout(g, opts)
}

// NewResidentRunner returns a runner answering a registered program's
// queries over a prebuilt layout: partition once, run many — concurrently
// if desired. The layout must have been built with the ExpandHops that
// ParseQuery reports for the queries it will serve.
func NewResidentRunner(program string, layout *Layout, opts Options) (ResidentRunner, error) {
	e, err := engine.Lookup(program)
	if err != nil {
		return nil, err
	}
	if e.Resident == nil {
		return nil, fmt.Errorf("grape: program %q cannot run resident", program)
	}
	return e.Resident(layout, opts)
}

// NewQueryServer returns an empty resident query service; add graphs with
// AddGraph and mount Handler() on an HTTP server (or use cmd/grape-serve).
func NewQueryServer(cfg ServeConfig) *QueryServer { return server.New(cfg) }

// RunSSSP computes single-source shortest distances from src (Example 1's
// PIE program: Dijkstra + bounded incremental relaxation).
func RunSSSP(ctx context.Context, g *Graph, src ID, opts Options) (map[ID]float64, *Stats, error) {
	return engine.Run(ctx, g, queries.SSSP{}, queries.SSSPQuery{Source: src}, opts)
}

// RunCC labels every vertex with the minimum vertex ID of its weakly
// connected component.
func RunCC(ctx context.Context, g *Graph, opts Options) (map[ID]ID, *Stats, error) {
	return engine.Run(ctx, g, queries.CC{}, queries.CCQuery{}, opts)
}

// RunSim computes graph simulation of a pattern: for each pattern vertex,
// the data vertices that simulate it.
func RunSim(ctx context.Context, g *Graph, pattern *Graph, opts Options) (map[ID][]ID, *Stats, error) {
	res, st, err := engine.Run(ctx, g, queries.Sim{}, queries.SimQuery{Pattern: pattern}, opts)
	return map[ID][]ID(res), st, err
}

// RunSubIso enumerates subgraph-isomorphism embeddings of a pattern
// (maxMatches 0 = unlimited). Fragments are expanded to the pattern radius
// automatically.
func RunSubIso(ctx context.Context, g *Graph, pattern *Graph, maxMatches int, opts Options) ([]Match, *Stats, error) {
	return queries.RunSubIso(ctx, g, queries.SubIsoQuery{Pattern: pattern, MaxMatches: maxMatches}, opts)
}

// RunKeyword finds the roots from which a holder of every keyword is
// reachable within bound, ranked by total distance.
func RunKeyword(ctx context.Context, g *Graph, keywords []string, bound float64, opts Options) ([]KeywordMatch, *Stats, error) {
	return engine.Run(ctx, g, queries.Keyword{}, queries.KeywordQuery{Keywords: keywords, Bound: bound, UseIndex: true}, opts)
}

// RunCF factorizes the bipartite ratings graph (vertices labeled
// "user"/"item", edge weights = ratings) by distributed SGD.
func RunCF(ctx context.Context, g *Graph, epochs int, opts Options) (CFResult, *Stats, error) {
	cfg := seq.DefaultCFConfig()
	if epochs > 0 {
		cfg.Epochs = epochs
	}
	return engine.Run(ctx, g, queries.CF{}, queries.CFQuery{Cfg: cfg}, opts)
}

// EvalRule evaluates a graph pattern association rule, returning candidate
// (x, y) pairs ranked by the rule's confidence on this graph.
func EvalRule(ctx context.Context, g *Graph, r Rule, opts Options) (*RuleResult, *Stats, error) {
	return gpar.Eval(ctx, g, r, opts)
}

// Example2Rule is the paper's Example 2 GPAR: ≥ minFrac of x's followees
// recommend y and none rates it badly ⇒ x is a potential buyer of y.
func Example2Rule(minFrac float64) Rule { return gpar.Example2Rule(minFrac) }

// DiscoverRules mines association rules from a social-commerce graph:
// candidate patterns over the schema are evaluated with the distributed
// SubIso machinery and filtered by support and confidence.
func DiscoverRules(ctx context.Context, g *Graph, minSupport int, minConfidence float64, opts Options) ([]*RuleResult, error) {
	cfg := gpar.DefaultDiscoverConfig()
	if minSupport > 0 {
		cfg.MinSupport = minSupport
	}
	if minConfidence > 0 {
		cfg.MinConfidence = minConfidence
	}
	return gpar.Discover(ctx, g, cfg, opts)
}

// PatternByName resolves a named pattern from the pattern library
// (chain3, triangle, star3, follows-recommend, co-recommend).
func PatternByName(name string) (*Graph, error) { return queries.PatternByName(name) }

// Dataset generators (deterministic in their seeds).

// RoadGrid generates the US-road-network stand-in: a weighted rows×cols grid
// with highway shortcuts; hop diameter ≈ rows+cols.
func RoadGrid(rows, cols int, seed int64) *Graph { return gen.RoadGrid(rows, cols, seed) }

// SocialNetwork generates a scale-free directed graph (LiveJournal stand-in).
func SocialNetwork(n, outDeg int, seed int64) *Graph {
	return gen.PreferentialAttachment(n, outDeg, seed)
}

// SocialCommerce generates a labeled person/product graph with follow,
// recommend, rate_bad and buy edges (Weibo stand-in) and a planted
// Example 2 signal.
func SocialCommerce(people, products int, seed int64) *Graph {
	return gen.SocialCommerce(gen.SocialCommerceConfig{
		People: people, Products: products, Follows: 4, AdoptP: 0.9, Seed: seed,
	})
}

// Ratings generates a bipartite user-item rating graph from a planted
// latent-factor model, for CF.
func Ratings(users, items, ratingsPerUser int, seed int64) *Graph {
	return gen.Ratings(gen.RatingsConfig{
		Users: users, Items: items, RatingsPerUser: ratingsPerUser, Factors: 4, Noise: 0.1, Seed: seed,
	})
}

// AttachKeywords decorates vertices with up to k keywords from vocab (each
// chosen with probability p) for keyword-search workloads.
func AttachKeywords(g *Graph, vocab []string, k int, p float64, seed int64) {
	gen.AttachKeywords(g, vocab, k, p, seed)
}

// Datasets names the generated datasets Dataset.Build knows.
const Datasets = "road|social|commerce|ratings"

// Dataset holds the sizes of every generated dataset and the generator
// seed: the flags the command-line tools share. Flags declares them, Build
// generates one dataset by name; each tool keeps its own flag for the name.
type Dataset struct {
	Rows, Cols       int // road
	N, Deg           int // social
	People, Products int // commerce
	Users, Items     int // ratings
	Seed             int64
}

// Flags declares -rows, -cols, -n, -deg, -people, -products, -users, -items
// and -seed on fs, bound to d.
func (d *Dataset) Flags(fs *flag.FlagSet) {
	fs.IntVar(&d.Rows, "rows", 128, "road: grid rows")
	fs.IntVar(&d.Cols, "cols", 128, "road: grid cols")
	fs.IntVar(&d.N, "n", 20000, "social: vertices")
	fs.IntVar(&d.Deg, "deg", 5, "social: out-degree")
	fs.IntVar(&d.People, "people", 2000, "commerce: people")
	fs.IntVar(&d.Products, "products", 20, "commerce: products")
	fs.IntVar(&d.Users, "users", 400, "ratings: users")
	fs.IntVar(&d.Items, "items", 80, "ratings: items")
	fs.Int64Var(&d.Seed, "seed", 1, "generator seed")
}

// Build generates the named dataset (one of Datasets) at d's sizes.
func (d *Dataset) Build(name string) (*Graph, error) {
	switch name {
	case "road":
		return RoadGrid(d.Rows, d.Cols, d.Seed), nil
	case "social":
		return SocialNetwork(d.N, d.Deg, d.Seed), nil
	case "commerce":
		return SocialCommerce(d.People, d.Products, d.Seed), nil
	case "ratings":
		return Ratings(d.Users, d.Items, 12, d.Seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (%s)", name, Datasets)
	}
}
