package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Stats {
	return &Stats{
		Workers:    2,
		Supersteps: 3,
		Messages:   10,
		Bytes:      1_000_000,
		WorkPerStep: [][]int64{
			{100, 50},
			{10, 30},
			{0, 5},
		},
		BytesPerStep: []int64{600_000, 300_000, 100_000},
	}
}

func TestTotalAndCriticalWork(t *testing.T) {
	s := sample()
	if s.TotalWork() != 195 {
		t.Fatalf("total work: %d", s.TotalWork())
	}
	if s.CriticalWork() != 135 { // 100 + 30 + 5
		t.Fatalf("critical work: %d", s.CriticalWork())
	}
	if s.MB() != 1.0 {
		t.Fatalf("MB: %g", s.MB())
	}
}

func TestCriticalWorkBelowTotal(t *testing.T) {
	f := func(work []uint8) bool {
		if len(work) == 0 {
			return true
		}
		row := make([]int64, len(work))
		for i, w := range work {
			row[i] = int64(w)
		}
		s := &Stats{WorkPerStep: [][]int64{row}}
		return s.CriticalWork() <= s.TotalWork()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepReport(t *testing.T) {
	var buf strings.Builder
	sample().StepReport(&buf)
	out := buf.String()
	for _, frag := range []string{"PEval", "IncEval", "superstep"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 4 { // header + 3 supersteps
		t.Fatalf("want 4 lines, got %d:\n%s", lines, out)
	}
}
