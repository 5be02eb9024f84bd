package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// ParsedQuery is a textual query resolved into a program's typed query plus
// the two facts a serving layer needs before running it: a canonical string
// (two query strings with the same semantics canonicalize identically, so it
// is safe cache-key material) and the fragment expansion the query requires
// (Options.ExpandHops; e.g. SubIso needs fragments expanded to the pattern
// radius, so a resident layout must have been built with the same hops).
type ParsedQuery struct {
	// Program is the registry name of the program that parsed the query.
	Program string
	// Query is the typed query value (e.g. queries.SSSPQuery).
	Query any
	// Canonical is the normalized query string: defaults resolved, numbers
	// reformatted, parameter order fixed.
	Canonical string
	// Hops is the d-hop fragment expansion this query needs (0 for most
	// programs; locality-bounded ones like SubIso and TriCount need > 0).
	Hops int
}

// ResidentRunner answers parsed queries over a prebuilt layout that stays
// resident between calls — the serving layer's handle on one (program,
// layout) pair. Implementations are safe for concurrent use: every call
// runs on its own contexts over the shared frozen fragments. The context
// bounds one call; a cancelled or expired context aborts the run at the
// next superstep barrier.
type ResidentRunner interface {
	RunParsed(ctx context.Context, pq ParsedQuery) (any, *metrics.Stats, error)
}

// SessionHandle is the erased view of a Session the serving layer drives:
// apply update batches, re-read the retained answer, and detect divergence.
// Update validates a batch first, by the same check as Entry.Validate, so a
// batch Entry.Validate accepted lands whole in Graph(). Journal replay needs
// no session: it splices each batch into the graph (SpliceBatch).
// Implementations are NOT safe for concurrent use — the serving layer
// serializes mutations per graph.
type SessionHandle interface {
	// Update applies a batch of mixed edge insertions and deletions and
	// returns the brought-up-to-date result (see Session.Update).
	Update(ctx context.Context, updates []EdgeUpdate) (any, *metrics.Stats, error)
	// Result re-assembles the current answer without recomputation.
	Result() (any, error)
	// Broken reports whether an aborted update diverged the retained state;
	// a broken session must be dropped and rebuilt.
	Broken() bool
	// Graph returns the current global graph (see Session.Graph).
	Graph() *graph.Graph
	// Layout returns the session's layout while its fragments hold Graph(),
	// else nil (see Session.Layout). A cut-invariant program's resident
	// runner may answer on it between two Updates.
	Layout() *partition.Layout
}

// Entry describes a PIE program registered in the GRAPE API library — the
// demo's "plug" panel. Its function fields erase the program's generic
// types so that the CLI, the serving layer and examples can pick programs
// by name and drive them with a textual query (the "play" panel).
//
// Entries are built with MakeEntry, which derives every hook from one typed
// source (the program plus its parse/canonical pair), so the hooks cannot
// drift apart: Run always parses through the same Parse the serving layer
// uses, Resident always answers exactly the queries Parse produces,
// Validate is the check every Session update runs first, Wire is present
// exactly when the program encodes its query and Check when it has a
// reference answer. Register rejects hand-assembled entries missing hooks.
type Entry struct {
	// Name is the registry key, e.g. "sssp".
	Name string
	// Description is a one-line summary shown by the library listing.
	Description string
	// QueryHelp documents the query string syntax accepted by Run.
	QueryHelp string
	// CutInvariant reports that the program answers Q(G) on any cut of G,
	// a session's evolved one included. MakeEntry derives it from the
	// program's VarSpec: a declared Less is the Assurance Theorem's
	// monotonicity condition, under which the fixpoint is the same whatever
	// the fragments. cf, whose pairwise averaging depends on the order
	// values meet, declares none.
	CutInvariant bool
	// Run parses query, executes the program on g, and returns its result.
	// The context bounds the run exactly as in the generic Run. With a wire
	// transport in opts.Transport the run is distributed; the worker half
	// of that protocol is Wire below.
	Run func(ctx context.Context, g *graph.Graph, opts Options, query string) (any, *metrics.Stats, error)
	// Parse resolves a textual query without running it: typed query,
	// canonical form, required fragment expansion. The CLI, the serving
	// layer and tests all parse through here so they cannot drift.
	Parse func(query string) (ParsedQuery, error)
	// Resident builds a runner answering this program's parsed queries over
	// a caller-owned prebuilt layout through RunOnLayout, without
	// re-partitioning and with per-run scratch from RunOnLayout's pool. It
	// refuses a wire transport. A query whose expansion (ParsedQuery.Hops) exceeds the layout's
	// (Layout.Hops) is refused, not answered short.
	Resident func(layout *partition.Layout, opts Options) (ResidentRunner, error)
	// Session runs the initial fixpoint for a parsed query on g and retains
	// the distributed state for incremental updates (NewSession). Every
	// program has one: programs without incremental hooks fall back to
	// reseeding inside the session on each update batch. Sessions partition g
	// themselves (with the expansion pq.Hops requires), own their fragments,
	// and run on the in-process bus.
	Session func(ctx context.Context, g *graph.Graph, opts Options, pq ParsedQuery) (SessionHandle, any, *metrics.Stats, error)
	// Validate checks an update batch against g for a parsed query without
	// opening a session or running the program: unknown endpoints, each
	// deletion against a live edge instance (counted per batch), and the
	// program's UpdateValidator. It is the check every session Update runs
	// first, so a batch it accepts lands whole — in a session over g, or
	// spliced into g alone (SpliceBatch). The serving layer validates before
	// it journals a batch, and replay validates each journaled one.
	Validate func(g *graph.Graph, pq ParsedQuery, ups []EdgeUpdate) error
	// Wire serves the worker side of a distributed run: decode the query
	// from the setup frame, run PEval/IncEval on the shipped fragment as
	// commanded, ship encoded replies and the final partial answer, honoring
	// the deadline the coordinator propagated in the setup frame. This is
	// the one capability-gated hook: MakeEntry fills it only when the
	// program implements WireProgram; nil means the program cannot run
	// distributed.
	Wire func(ctx context.Context, link WorkerLink, query []byte, f *partition.Fragment) error
	// Check holds got, an answer to pq on g, to the spec's Reference answer
	// by its Agree rule; an answer of another type is an error, not a panic.
	// Like Wire it is capability-gated: nil when the spec has no Reference.
	Check func(g *graph.Graph, pq ParsedQuery, got any) error
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Entry)
)

// Register adds a program to the library. It panics on duplicate names and
// on entries with missing hooks: registration happens in package init,
// where both are programming errors. Build entries with MakeEntry — it
// derives a coherent set of hooks from the typed program; the only hooks
// allowed to be nil are Wire and Check (genuine capabilities: no query
// encoding, no distributed runs; no reference answer, nothing to check against).
func Register(e Entry) {
	regMu.Lock()
	defer regMu.Unlock()
	if e.Name == "" {
		panic("engine: Register: empty program name")
	}
	if e.Run == nil || e.Parse == nil || e.Resident == nil || e.Session == nil || e.Validate == nil {
		panic(fmt.Sprintf("engine: Register(%q): incomplete entry (build it with MakeEntry)", e.Name))
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate program %q", e.Name))
	}
	registry[e.Name] = e
}

// Lookup returns the registered program with the given name.
func Lookup(name string) (Entry, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return Entry{}, fmt.Errorf("engine: no program %q registered (have %v)", name, slices.Sorted(maps.Keys(registry)))
	}
	return e, nil
}

// Library lists all registered programs sorted by name.
func Library() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.SortedFunc(maps.Values(registry), func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
}
