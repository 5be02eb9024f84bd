// Package server is the resident query-serving runtime of the paper's
// Fig. 2 system: graphs are loaded and partitioned once, stay resident as
// frozen fragment layouts, and answer a stream of concurrent client queries
// — the missing piece between a one-shot CLI run and a service under
// traffic. See ARCHITECTURE.md's "Serving queries" section for the design:
// admission scheduler, per-graph epochs, and the (epoch, program, canonical
// query) result cache.
package server

import "grape/internal/trace"

// QueryRequest is one query against a named resident graph, run on the
// server's one layout for its expansion depth (a client cannot pick another:
// "workers" or "strategy" in a body is an unknown field); NoCache skips the
// result-cache read so the engine runs even if the answer is known.
type QueryRequest struct {
	Graph   string `json:"graph"`
	Program string `json:"program"`
	Query   string `json:"query"`
	NoCache bool   `json:"nocache,omitempty"`
}

// RunStats summarizes the engine run that produced an answer. Cache hits
// return the stats of the run that originally computed the cached result,
// not zeroes — Supersteps/Bytes describe the answer's provenance, not work
// done by this request.
type RunStats struct {
	Supersteps int     `json:"supersteps"`
	Messages   int64   `json:"messages"`
	Bytes      int64   `json:"bytes"`
	WallMs     float64 `json:"wall_ms"`
}

// QueryResponse is a served answer. Result is the program's result value
// (program-specific shape — e.g. sssp returns a vertex→distance map), for
// in-process callers; over HTTP the handler writes the answer's encoded
// bytes instead (see writeAnswer), in the field order declared here. Cached
// reports whether it came from the result cache; Epoch is the graph epoch it
// is valid for.
type QueryResponse struct {
	Graph     string   `json:"graph"`
	Epoch     uint64   `json:"epoch"`
	Program   string   `json:"program"`
	Canonical string   `json:"canonical"`
	Cached    bool     `json:"cached"`
	Result    any      `json:"result"`
	Stats     RunStats `json:"stats"`
	// TraceID names the flight-recorder trace of the engine run that
	// computed this answer — fetch it via GET /debug/runs/{id}. Empty for
	// cache hits (no run happened) and when retention already evicted it.
	TraceID string `json:"trace_id,omitempty"`

	// answer is the computed answer Result and Stats came from; it owns the
	// encoded result bytes the HTTP handler sends.
	answer *cacheVal
}

// FlightIndex is the GET /debug/runs answer: the flight recorder's retained
// run summaries (newest last) plus its recent discrete events (cache hits,
// session updates). Fetch one run's full trace at /debug/runs/{id}.
type FlightIndex struct {
	Runs   []trace.RunSummary `json:"runs"`
	Events []trace.Event      `json:"events,omitempty"`
}

// Health is the GET /healthz liveness answer: the process serves HTTP and
// reports how many graphs are resident. The serve-smoke CI job (and any
// orchestrator) polls it as the readiness gate before sending queries.
type Health struct {
	OK     bool `json:"ok"`
	Graphs int  `json:"graphs"`
}

// GraphInfo describes one resident graph.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Directed bool   `json:"directed"`
	Epoch    uint64 `json:"epoch"`
}

// EdgeJSON is one edge update of a mutation request: an insertion by
// default, a deletion when Del is set (From/To/Label select the edge to
// remove; W is ignored for deletions).
type EdgeJSON struct {
	From  int64   `json:"from"`
	To    int64   `json:"to"`
	W     float64 `json:"w"`
	Label string  `json:"label,omitempty"`
	Del   bool    `json:"del,omitempty"`
}

// MutateRequest applies edge updates to a named graph. Program and Query
// pick the incremental session the mutation flows through (and whose fresh
// answer is primed into the result cache); they default to the
// parameterless "cc" query.
type MutateRequest struct {
	Graph   string     `json:"graph"`
	Program string     `json:"program,omitempty"`
	Query   string     `json:"query,omitempty"`
	Edges   []EdgeJSON `json:"edges"`
}

// MutateResponse reports the graph's epoch after the mutation; every cached
// result keyed to earlier epochs is now unreachable except the session's
// fresh (Program, Canonical) answer, primed under the new epoch.
type MutateResponse struct {
	Graph     string   `json:"graph"`
	Epoch     uint64   `json:"epoch"`
	Program   string   `json:"program"`
	Canonical string   `json:"canonical"`
	Stats     RunStats `json:"stats"`
}
