package experiments

import (
	"context"
	"testing"
)

// testScale keeps the full experiment matrix fast in CI while preserving the
// structural properties (grid diameter, skewed degrees, planted rules).
func testScale() Scale {
	return Scale{
		RoadRows: 48, RoadCols: 48,
		SocialN: 3000, SocialDeg: 4,
		People: 800, Products: 10,
		Users: 150, Items: 40,
		Seed: 1,
	}
}

// assertOrdering checks the paper's Table 1 ordering on the exact counters
// of a four-system table (rows in Table1's order: Giraph, GraphLab, Blogel,
// GRAPE): GRAPE < Blogel < Giraph and GraphLab, strictly, in supersteps,
// messages and MB.
func assertOrdering(t *testing.T, rows []Row) {
	t.Helper()
	if len(rows) != 4 {
		t.Fatalf("want 4 systems, got %d", len(rows))
	}
	giraph, graphlab, blogel, grape := rows[0], rows[1], rows[2], rows[3]
	counters := []struct {
		name string
		of   func(Row) float64
	}{
		{"supersteps", func(r Row) float64 { return float64(r.Supersteps) }},
		{"messages", func(r Row) float64 { return float64(r.Messages) }},
		{"MB", func(r Row) float64 { return r.CommMB }},
	}
	for _, c := range counters {
		for _, p := range []struct{ lo, hi Row }{{grape, blogel}, {blogel, giraph}, {blogel, graphlab}} {
			if !(c.of(p.lo) < c.of(p.hi)) {
				t.Errorf("%s: %s (%g) should be below %s (%g)", c.name, p.lo.System, c.of(p.lo), p.hi.System, c.of(p.hi))
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(context.Background(), testScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	assertOrdering(t, rows)
	// GRAPE's traffic is an order of magnitude below the vertex-centric
	// engines'.
	if giraph, grape := rows[0], rows[3]; !(grape.CommMB*10 < giraph.CommMB) {
		t.Errorf("GRAPE traffic (%.4f MB) should be far below Giraph (%.4f MB)", grape.CommMB, giraph.CommMB)
	}
}

func TestPartitionImpactShape(t *testing.T) {
	rows, err := PartitionImpact(context.Background(), testScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 strategies, got %d", len(rows))
	}
	metis, fennel, hash := rows[0], rows[1], rows[2]
	// Section 3: better partitions ⇒ fewer messages. Hash must be worst.
	if !(metis.Messages <= fennel.Messages) {
		t.Errorf("metis messages (%d) should be <= fennel (%d)", metis.Messages, fennel.Messages)
	}
	if !(fennel.Messages < hash.Messages) {
		t.Errorf("fennel messages (%d) should be < hash (%d)", fennel.Messages, hash.Messages)
	}
	if !(metis.CommMB <= hash.CommMB) {
		t.Errorf("metis traffic (%.4f MB) should be <= hash (%.4f MB)", metis.CommMB, hash.CommMB)
	}
	if !(metis.Supersteps <= hash.Supersteps) {
		t.Errorf("metis supersteps (%d) should be <= hash (%d)", metis.Supersteps, hash.Supersteps)
	}
}

func TestScaleUpShape(t *testing.T) {
	counts := []int{2, 4, 8, 16}
	rows, err := ScaleUp(context.Background(), testScale(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(counts) {
		t.Fatalf("want %d rows, got %d", 2*len(counts), len(rows))
	}
	// The critical-path work must shrink as workers grow (the scale-up
	// claim); we assert the endpoints to avoid flakiness at middle points.
	ssspFirst, ssspLast := rows[0], rows[len(counts)-1]
	if !(ssspLast.Work/int64(ssspLast.Workers) < ssspFirst.Work) {
		t.Errorf("per-worker work should shrink: %d workers %d total vs %d workers %d total",
			ssspFirst.Workers, ssspFirst.Work, ssspLast.Workers, ssspLast.Work)
	}
}

func TestBoundedIncEvalShape(t *testing.T) {
	bounded, recompute, steps, err := BoundedIncEval(context.Background(), testScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(bounded.Work < recompute.Work) {
		t.Errorf("bounded IncEval total work (%d) should beat recompute (%d)", bounded.Work, recompute.Work)
	}
	if len(steps) < 3 {
		t.Fatalf("expected a multi-superstep run, got %d", len(steps))
	}
	// Late supersteps must touch far less than a fragment re-scan; the
	// recompute variant keeps paying at least a full vertex scan.
	last := steps[len(steps)-1]
	if last.MaxWork > int64(last.FragmentSz) {
		t.Errorf("final superstep work (%d) should be below fragment size (%d)", last.MaxWork, last.FragmentSz)
	}
	lastR := steps[len(steps)-2] // recompute may finish one step earlier/later
	if lastR.RecomputeWork > 0 && lastR.RecomputeWork < int64(lastR.FragmentSz) {
		t.Errorf("recompute tail work (%d) should stay at least a fragment scan (%d)", lastR.RecomputeWork, lastR.FragmentSz)
	}
}

func TestGPARScaleShape(t *testing.T) {
	rows, err := GPARScale(context.Background(), testScale(), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4 claim: more workers, faster. It is a claim about the
	// enumeration — every match is found once, by the fragment owning its
	// anchor — so it is asserted on the busiest worker's work, endpoints
	// compared.
	first, last := rows[0], rows[len(rows)-1]
	if !(4*last.CriticalWork < first.CriticalWork) {
		t.Errorf("GPAR's critical path should shrink with workers: %dw %d vs %dw %d work units",
			first.Workers, first.CriticalWork, last.Workers, last.CriticalWork)
	}
	// All runs must agree on the answer.
	for _, r := range rows[1:] {
		if r.Note != rows[0].Note {
			t.Errorf("results differ across worker counts: %q vs %q", rows[0].Note, r.Note)
		}
	}
}

func TestSimTheoremShape(t *testing.T) {
	rows, err := SimTheorem(context.Background(), testScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		native, sim := rows[i], rows[i+1]
		diff := sim.Supersteps - native.Supersteps
		if diff < -1 || diff > 1 {
			t.Errorf("%s: supersteps native %d vs simulated %d", native.Note, native.Supersteps, sim.Supersteps)
		}
	}
}

func TestIndexAblationShape(t *testing.T) {
	rows, err := IndexAblation(context.Background(), testScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	indexed, scan := rows[0], rows[1]
	if !(indexed.Work < scan.Work) {
		t.Errorf("indexed keyword work (%d) should beat scanning (%d)", indexed.Work, scan.Work)
	}
}

func TestQueryLibraryRunsAllClasses(t *testing.T) {
	rows, err := QueryLibrary(context.Background(), testScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sssp", "cc", "sim", "subiso", "keyword", "cf"}
	if len(rows) != len(want) {
		t.Fatalf("want %d rows, got %d", len(want), len(rows))
	}
	for i, w := range want {
		if rows[i].System != w {
			t.Errorf("row %d: want %s got %s", i, w, rows[i].System)
		}
	}
}

func TestScalingGapWidens(t *testing.T) {
	rows, err := ScalingGap(context.Background(), []int{24, 48, 96}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	// The communication ratio Giraph/GRAPE must grow with graph size:
	// vertex-centric traffic grows with the grid's area, GRAPE's with the
	// partition perimeter.
	if !(rows[0].Ratio < rows[2].Ratio) {
		t.Errorf("gap should widen with size: %v", rows)
	}
	for _, r := range rows {
		if r.GrapeSteps >= r.GiraphSteps {
			t.Errorf("side %d: GRAPE steps %d should be far below Giraph %d", r.GridSide, r.GrapeSteps, r.GiraphSteps)
		}
	}
}

func TestTableCCShape(t *testing.T) {
	rows, err := TableCC(context.Background(), testScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	assertOrdering(t, rows)
	if giraph, grape := rows[0], rows[3]; !(grape.Messages < giraph.Messages/10) {
		t.Errorf("GRAPE CC messages (%d) should be far below Giraph (%d)", grape.Messages, giraph.Messages)
	}
}

func TestLayoutReuseAmortizes(t *testing.T) {
	perQuery, reused, err := LayoutReuse(context.Background(), testScale(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Reusing the partition decision changes where the time goes, not what
	// runs: both variants answer the same queries over the same cut.
	if reused.Supersteps != perQuery.Supersteps || reused.Messages != perQuery.Messages || reused.CommMB != perQuery.CommMB {
		t.Errorf("reused layout ran differently: %d steps, %d msgs, %.4f MB vs %d steps, %d msgs, %.4f MB",
			reused.Supersteps, reused.Messages, reused.CommMB, perQuery.Supersteps, perQuery.Messages, perQuery.CommMB)
	}
}
