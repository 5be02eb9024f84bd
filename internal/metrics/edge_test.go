package metrics

import (
	"math"
	"strings"
	"testing"
)

// Edge cases of the per-superstep balance math: runs where a superstep did
// no work at all, and stats whose BytesPerStep is shorter than WorkPerStep
// (a "ragged" run — byte rows are appended per collect, work rows per fold,
// and a failed run can leave them uneven).

func TestStepReportZeroWork(t *testing.T) {
	s := &Stats{
		Workers:      2,
		WorkPerStep:  [][]int64{{0, 0}},
		BytesPerStep: []int64{0},
	}
	var sb strings.Builder
	s.StepReport(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("report lines = %d:\n%s", len(lines), out)
	}
	// A zero-work superstep reports perfect balance (1.00), not NaN or Inf.
	if !strings.Contains(lines[1], "1.00") {
		t.Fatalf("zero-work balance not 1.00: %q", lines[1])
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("report leaked NaN/Inf:\n%s", out)
	}
}

func TestStepReportRaggedBytesPerStep(t *testing.T) {
	s := &Stats{
		Workers:      2,
		WorkPerStep:  [][]int64{{30, 10}, {5, 5}},
		BytesPerStep: []int64{123}, // second superstep has no byte row
	}
	var sb strings.Builder
	s.StepReport(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("report lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.Contains(lines[1], "123") {
		t.Fatalf("first step lost its bytes: %q", lines[1])
	}
	// The ragged second step must render with zero bytes.
	fields := strings.Fields(lines[2])
	if fields[len(fields)-1] != "0" {
		t.Fatalf("ragged step bytes = %q, want 0", fields[len(fields)-1])
	}
}

func TestStepReportEmptyWorkers(t *testing.T) {
	// A step row with no per-worker entries at all (workers = 0) must not
	// divide by zero.
	s := &Stats{WorkPerStep: [][]int64{{}}}
	var sb strings.Builder
	s.StepReport(&sb)
	if out := sb.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("report leaked NaN/Inf:\n%s", out)
	}
}

func TestObserveRunImbalance(t *testing.T) {
	m := NewServing()
	m.ObserveRun("sssp", &Stats{
		Workers:     2,
		WorkPerStep: [][]int64{{300, 100}, {200, 200}},
		Recoveries:  []Recovery{{Superstep: 1, Fragment: 0, Host: 1}},
	})
	m.ObserveRun("sssp", nil)
	m.ObserveRun("cc", &Stats{Workers: 2, WorkPerStep: [][]int64{{0, 0}}})

	s := m.Snapshot(0, 0)
	if s.RunsByClass["sssp"] != 2 || s.RunsByClass["cc"] != 1 {
		t.Fatalf("runs by class = %v", s.RunsByClass)
	}
	if s.Recoveries != 1 {
		t.Fatalf("recoveries = %d", s.Recoveries)
	}
	// The gauge tracks the most recent run: zero-work → perfect balance.
	if len(s.WorkerImbalance) != 2 || s.WorkerImbalance[0] != 1.0 || s.WorkerImbalance[1] != 1.0 {
		t.Fatalf("imbalance after zero-work run = %v", s.WorkerImbalance)
	}

	// A skewed run: worker 0 did 500 of 800 total over 2 workers →
	// 500*2/800 = 1.25; worker 1 → 300*2/800 = 0.75.
	m.ObserveRun("sssp", &Stats{Workers: 2, WorkPerStep: [][]int64{{300, 100}, {200, 200}}})
	s = m.Snapshot(0, 0)
	if math.Abs(s.WorkerImbalance[0]-1.25) > 1e-12 || math.Abs(s.WorkerImbalance[1]-0.75) > 1e-12 {
		t.Fatalf("imbalance = %v, want [1.25 0.75]", s.WorkerImbalance)
	}
}
