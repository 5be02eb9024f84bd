package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is how one (workload, end-to-end metric) pair compares between two
// result files.
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // pass spread wider than the bound: the runs cannot tell
)

// classify compares a metric's medians in two runs against its regression
// bound. A pass spread wider than the bound in either run means the
// measurement cannot resolve a change of that size, and says so rather than
// calling it unchanged.
func classify(d metricDef, old, new metricReport) verdict {
	if math.Max(old.Spread, new.Spread) > *d.Bound {
		return unresolved
	}
	change := ratio(new.Value-old.Value, math.Abs(old.Value)) // > 0: the value grew
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > *d.Bound:
		return worse
	case change < -*d.Bound:
		return better
	}
	return same
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles is `benchmark -compare old.json new.json`: one line per
// (workload, end-to-end metric), the exact counters held to equality, and an
// error — a non-zero exit — on any worse verdict or counter mismatch.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, wd := range workloadDefs {
		a, b := old.Workloads[wd.Name], cur.Workloads[wd.Name]
		if a == nil || b == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", wd.Name)
			bad++
			continue
		}
		for _, d := range endToEndDefs {
			v := classify(d, a.EndToEnd[d.Name], b.EndToEnd[d.Name])
			if v == worse {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-16s %-10s %12.4f -> %12.4f %-4s (bound %.0f%%, pass spread %.1f%% / %.1f%%)\n",
				wd.Name, d.Name, v, a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value, d.Unit,
				*d.Bound*100, a.EndToEnd[d.Name].Spread*100, b.EndToEnd[d.Name].Spread*100)
		}
		for _, k := range sortedKeys(a.Exact) {
			v := same
			if a.Exact[k] != b.Exact[k] {
				v = worse
				bad++
			}
			fmt.Fprintf(w, "%-14s %-26s %-10s %v -> %v (exact)\n", wd.Name, k, v, a.Exact[k], b.Exact[k])
		}
		if b.Failed > a.Failed {
			fmt.Fprintf(w, "%-14s %-26s %-10s %d -> %d of %d ops\n", wd.Name, "failed", worse, a.Failed, b.Failed, b.Attempted)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions or counter mismatches", bad)
	}
	return nil
}
