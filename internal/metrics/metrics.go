// Package metrics defines the measurement vocabulary shared by every engine
// in the reproduction (GRAPE, Pregel-style, GAS, block-centric).
//
// Stats holds exact counts: supersteps, cross-worker messages and bytes, and
// the elementary work units (heap operations, edge relaxations, gather ops)
// each worker spent in each superstep. The counts are deterministic for a
// given graph, program and partition, so tests compare engines on them
// directly. WallTime is the one measured time, the real elapsed time of the
// run on this host; what span it covers differs between engines.
package metrics

import (
	"fmt"
	"io"
	"time"
)

// Stats aggregates everything one engine run measured.
type Stats struct {
	Workers    int
	Supersteps int

	// Transport names the substrate the run used: "" for the in-process
	// bus, "wire" for a socket transport. It qualifies Messages and Bytes:
	// bus runs estimate bytes from the engine's value table (a size per
	// update-parameter type, internal/engine/value.go), wire runs measure
	// the actual encoded payload lengths.
	Transport string

	// Messages and Bytes are cross-worker data traffic (what would hit the
	// network on a real cluster).
	Messages int64
	Bytes    int64

	// WorkPerStep[r][i] is the work units worker i spent in superstep r.
	WorkPerStep [][]int64
	// BytesPerStep[r] is the data volume shipped in superstep r.
	BytesPerStep []int64

	// WallTime is the real elapsed time of the run on this host.
	WallTime time.Duration

	// Recoveries records every fragment reassignment the run survived: a
	// worker died at Superstep, and Fragment was replayed from the last
	// checkpoint onto Host. Empty for failure-free runs — equivalence tests
	// key off that to prove a faulted run both recovered and converged to
	// the failure-free answer.
	Recoveries []Recovery
}

// Recovery is one fragment reassignment performed by the coordinator after a
// worker-fatal transport error.
type Recovery struct {
	Superstep int
	Fragment  int
	Host      int
}

// TotalWork sums work units over all workers and supersteps.
func (s *Stats) TotalWork() int64 {
	var t int64
	for _, step := range s.WorkPerStep {
		for _, w := range step {
			t += w
		}
	}
	return t
}

// CriticalWork sums the per-superstep maximum worker work: the BSP critical
// path.
func (s *Stats) CriticalWork() int64 {
	var t int64
	for _, step := range s.WorkPerStep {
		var max int64
		for _, w := range step {
			if w > max {
				max = w
			}
		}
		t += max
	}
	return t
}

// MB returns traffic in megabytes.
func (s *Stats) MB() float64 { return float64(s.Bytes) / 1e6 }

// StepReport renders the per-superstep breakdown the demo's analytics panel
// visualizes: superstep 1 is PEval, later rows are incremental steps; each
// shows the critical-path worker, total work, imbalance, and traffic.
func (s *Stats) StepReport(w io.Writer) {
	fmt.Fprintf(w, "superstep   phase      max-work  total-work  balance  bytes\n")
	for r, perWorker := range s.WorkPerStep {
		var max, total int64
		for _, wk := range perWorker {
			total += wk
			if wk > max {
				max = wk
			}
		}
		phase := "IncEval"
		if r == 0 {
			phase = "PEval"
		}
		balance := 1.0
		if total > 0 && len(perWorker) > 0 {
			balance = float64(max) / (float64(total) / float64(len(perWorker)))
		}
		var bytes int64
		if r < len(s.BytesPerStep) {
			bytes = s.BytesPerStep[r]
		}
		fmt.Fprintf(w, "%9d   %-8s %9d  %10d  %7.2f  %5d\n", r+1, phase, max, total, balance, bytes)
	}
}
