package queries

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"grape/internal/engine"
	"grape/internal/graph"
)

// Query-string parsing is a first-class step shared by every consumer: the
// CLI's -program/-query flags, the serving layer's POST /query bodies, and
// tests all resolve text through the same per-program parse functions, so a
// query cannot mean one thing on the command line and another over HTTP.
// Each program file defines parseX (text -> typed query) and canonicalX
// (typed query -> normalized string, the cache-key form with defaults
// resolved); each init hands them to engine.MakeEntry with the class's
// ground truth (a Reference answer from internal/seq and its Agree rule), so
// Entry.Run, Entry.Parse, Entry.Resident and Entry.Check share one spec.

// Parse resolves a textual query against a registered program: typed query,
// canonical form, required fragment expansion.
func Parse(program, query string) (engine.ParsedQuery, error) {
	e, err := engine.Lookup(program)
	if err != nil {
		return engine.ParsedQuery{}, err
	}
	return e.Parse(query)
}

// agreeMaps holds a map-shaped answer to want key for key under eq, naming
// the smallest vertex where they differ.
func agreeMaps[M ~map[graph.ID]V, V any](eq func(a, b V) bool) func(got, want M) error {
	return func(got, want M) error {
		if len(got) != len(want) {
			return fmt.Errorf("%d vertices, want %d", len(got), len(want))
		}
		for _, v := range slices.Sorted(maps.Keys(want)) {
			if g, ok := got[v]; !ok {
				return fmt.Errorf("vertex %d: missing, want %v", v, want[v])
			} else if !eq(g, want[v]) {
				return fmt.Errorf("vertex %d: %v, want %v", v, g, want[v])
			}
		}
		return nil
	}
}

// agreeRanked holds a ranked answer to want rank by rank under eq, naming
// the first rank where they differ.
func agreeRanked[T any](eq func(a, b T) bool) func(got, want []T) error {
	return func(got, want []T) error {
		for i := range min(len(got), len(want)) {
			if !eq(got[i], want[i]) {
				return fmt.Errorf("rank %d: %v, want %v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d answers, want %d", len(got), len(want))
		}
		return nil
	}
}

func equal[T comparable](a, b T) bool { return a == b }

// fmtFloat renders a float the shortest way that round-trips — the one
// canonical spelling per value, so "bound=4" and "bound=4.0" key identically.
func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
