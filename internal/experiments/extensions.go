package experiments

import (
	"context"
	"fmt"
	"time"

	"grape/internal/blockcentric"
	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/vertexcentric"
)

// TableCC is the CC analogue of Table 1 (the SIGMOD paper evaluates CC
// across the same systems): weakly connected components over the social
// graph on all four engines. Vertex-centric CC floods labels vertex by
// vertex; the block- and fragment-based systems collapse whole regions per
// superstep.
func TableCC(ctx context.Context, sc Scale, workers int) ([]Row, error) {
	g := sc.Social()
	sym := g.Symmetrized() // engines that flood along out-edges need mirrors
	var rows []Row

	if _, st, err := vertexcentric.Run(g, vertexcentric.CCProgram{},
		vertexcentric.Config{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("Giraph-like", "vertex-centric", st, "min-label flooding"))
	}
	if _, st, err := vertexcentric.RunGAS(sym, vertexcentric.GASCC{},
		vertexcentric.GASConfig{Workers: workers}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("GraphLab-like", "vertex-centric (GAS)", st, "symmetrized gather"))
	}
	if _, st, err := blockcentric.Run(sym, blockcentric.CCBlock{},
		blockcentric.Config{Workers: workers, Strategy: partition.Fennel{}, BlocksPerWorker: 8}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("Blogel-like", "block-centric", st, "block-level label exchange"))
	}
	if _, st, err := engine.Run(ctx, g, queries.CC{}, queries.CCQuery{},
		engine.Options{Workers: workers, Strategy: partition.Fennel{}}); err != nil {
		return nil, err
	} else {
		rows = append(rows, rowFromStats("GRAPE", "auto-parallelization", st, "union-find PIE"))
	}
	return rows, nil
}

// LayoutReuse measures the Partition Manager's amortization: the demo
// partitions a graph once and then answers many queries against the same
// fragments. The experiment compares Q queries with per-query partitioning
// against Q queries on one prebuilt layout.
func LayoutReuse(ctx context.Context, sc Scale, workers, queriesN int) (perQuery, reused Row, err error) {
	g := sc.Road()
	spatial := partition.TwoD{Cols: sc.RoadCols}
	sources := make([]graph.ID, queriesN)
	for i := range sources {
		sources[i] = graph.ID((i * 7919) % g.NumVertices())
	}

	agg := func(dst *metrics.Stats, st *metrics.Stats) {
		dst.Supersteps += st.Supersteps
		dst.Messages += st.Messages
		dst.Bytes += st.Bytes
		dst.WorkPerStep = append(dst.WorkPerStep, st.WorkPerStep...)
		dst.BytesPerStep = append(dst.BytesPerStep, st.BytesPerStep...)
	}

	statsPer := &metrics.Stats{Workers: workers}
	start := time.Now()
	for _, src := range sources {
		_, st, err := engine.Run(ctx, g, queries.SSSP{}, queries.SSSPQuery{Source: src},
			engine.Options{Workers: workers, Strategy: spatial})
		if err != nil {
			return Row{}, Row{}, err
		}
		agg(statsPer, st)
	}
	wallPer := time.Since(start)

	statsReuse := &metrics.Stats{Workers: workers}
	start = time.Now()
	asg, err := spatial.Partition(g, workers)
	if err != nil {
		return Row{}, Row{}, err
	}
	for _, src := range sources {
		layout := partition.Build(g, asg) // fragments rebuilt, partition decision reused
		_, st, err := engine.RunOnLayout(ctx, layout, queries.SSSP{}, queries.SSSPQuery{Source: src}, engine.Options{})
		if err != nil {
			return Row{}, Row{}, err
		}
		agg(statsReuse, st)
	}
	wallReuse := time.Since(start)

	note := func(wall time.Duration) string {
		return fmt.Sprintf("%d queries, wall %v", queriesN, wall.Round(time.Microsecond))
	}
	perQuery = rowFromStats("partition-per-query", "layout reuse", statsPer, note(wallPer))
	reused = rowFromStats("partition-once", "layout reuse", statsReuse, note(wallReuse))
	return perQuery, reused, nil
}

// GapRow is one size point of the scaling-gap experiment.
type GapRow struct {
	GridSide    int
	GiraphMB    float64
	GrapeMB     float64
	Ratio       float64
	GiraphSteps int
	GrapeSteps  int
}

// ScalingGap explains why the paper's Table 1 gaps are larger than this
// reproduction's: as the road network grows, vertex-centric traffic grows
// with the area (edges relaxed) while GRAPE's grows with the partition
// perimeter (border nodes), so the communication ratio widens with size.
// The experiment sweeps grid side lengths and reports the ratio.
func ScalingGap(ctx context.Context, sides []int, workers int) ([]GapRow, error) {
	var rows []GapRow
	for _, side := range sides {
		g := gen.RoadGrid(side, side, 1)
		src := graph.ID(0)
		_, stG, err := vertexcentric.Run(g, vertexcentric.SSSPProgram{Source: src},
			vertexcentric.Config{Workers: workers})
		if err != nil {
			return nil, err
		}
		_, stR, err := engine.Run(ctx, g, queries.SSSP{}, queries.SSSPQuery{Source: src},
			engine.Options{Workers: workers, Strategy: partition.TwoD{Cols: side}})
		if err != nil {
			return nil, err
		}
		row := GapRow{
			GridSide:    side,
			GiraphMB:    stG.MB(),
			GrapeMB:     stR.MB(),
			GiraphSteps: stG.Supersteps,
			GrapeSteps:  stR.Supersteps,
		}
		if row.GrapeMB > 0 {
			row.Ratio = row.GiraphMB / row.GrapeMB
		}
		rows = append(rows, row)
	}
	return rows, nil
}
