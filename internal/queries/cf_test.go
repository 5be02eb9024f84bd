package queries

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/partition"
	"grape/internal/seq"
)

func ratingsGraph(seed int64) *gen.RatingsConfig {
	return &gen.RatingsConfig{Users: 120, Items: 40, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: seed}
}

func TestCFLearnsSignal(t *testing.T) {
	g := gen.Ratings(*ratingsGraph(5))
	cfg := seq.DefaultCFConfig()
	cfg.Epochs = 15
	res, stats, err := engine.Run(context.Background(), g, CF{}, CFQuery{Cfg: cfg}, engine.Options{Workers: 4, Strategy: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	// Initial factors ~0.05 predict ~0.02 for ratings centered at 3:
	// RMSE ~3. After training it must be far below that.
	if res.RMSE > 1.5 {
		t.Fatalf("CF failed to learn: RMSE %.3f", res.RMSE)
	}
	if stats.Supersteps < cfg.Epochs {
		t.Fatalf("expected ~one superstep per epoch, got %d for %d epochs", stats.Supersteps, cfg.Epochs)
	}
	if len(res.Factors) != g.NumVertices() {
		t.Fatalf("factors for %d vertices, want %d", len(res.Factors), g.NumVertices())
	}
}

func TestCFSingleWorkerMatchesSequentialShape(t *testing.T) {
	g := gen.Ratings(*ratingsGraph(9))
	cfg := seq.DefaultCFConfig()
	cfg.Epochs = 10
	res, stats, err := engine.Run(context.Background(), g, CF{}, CFQuery{Cfg: cfg}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Different init path but same algorithm class: both converge to a
	// similar fit on planted data.
	mustAgree(t, "one worker", "cf", g, CFQuery{Cfg: cfg}, res)
	if stats.Supersteps != 1 {
		t.Fatalf("single borderless worker should finish in PEval, got %d supersteps", stats.Supersteps)
	}
}

func TestCFMoreEpochsFitBetter(t *testing.T) {
	g := gen.Ratings(*ratingsGraph(7))
	short := seq.DefaultCFConfig()
	short.Epochs = 2
	long := seq.DefaultCFConfig()
	long.Epochs = 25
	cut := engine.Options{Workers: 3, Strategy: partition.Hash{}} // RMSE depends on the cut
	rShort, _, err := engine.Run(context.Background(), g, CF{}, CFQuery{Cfg: short}, cut)
	if err != nil {
		t.Fatal(err)
	}
	rLong, _, err := engine.Run(context.Background(), g, CF{}, CFQuery{Cfg: long}, cut)
	if err != nil {
		t.Fatal(err)
	}
	if rLong.RMSE >= rShort.RMSE {
		t.Fatalf("more epochs should fit better: %d epochs %.3f vs %d epochs %.3f",
			long.Epochs, rLong.RMSE, short.Epochs, rShort.RMSE)
	}
}

func TestCFRejectsBadConfig(t *testing.T) {
	g := gen.Ratings(*ratingsGraph(1))
	if _, _, err := engine.Run(context.Background(), g, CF{}, CFQuery{}, engine.Options{Workers: 2}); err == nil {
		t.Fatal("expected error for zero config")
	}
}

func TestCFDeterministicAcrossRuns(t *testing.T) {
	g := gen.Ratings(*ratingsGraph(3))
	cfg := seq.DefaultCFConfig()
	cfg.Epochs = 5
	r1, _, err := engine.Run(context.Background(), g, CF{}, CFQuery{Cfg: cfg}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := engine.Run(context.Background(), g, CF{}, CFQuery{Cfg: cfg}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.RMSE != r2.RMSE {
		t.Fatalf("nondeterministic CF: %.9f vs %.9f", r1.RMSE, r2.RMSE)
	}
}

// TestCFPartialRefusesShortFactors: a partial answer whose factor vector is
// not the query's factor count fails with an error; Assemble would index
// past it and panic the coordinator.
func TestCFPartialRefusesShortFactors(t *testing.T) {
	layout, err := engine.BuildLayout(gen.Ratings(*ratingsGraph(3)), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, q, vec := layout.Fragments[0], CFQuery{Cfg: seq.DefaultCFConfig()}, engine.ValueCodec[[]float64](0)
	u := seq.UsersOf(f.G)[0] // its factors, then a one-value vector for an item it rated, then it as the user
	data := vec.AppendVal(binary.AppendUvarint([]byte{2}, uint64(u)), make([]float64, q.Cfg.Factors))
	data = vec.AppendVal(binary.AppendUvarint(data, uint64(f.G.Out(u)[0].To)), []float64{1})
	data = binary.AppendUvarint(append(data, 1), uint64(u))
	ctx := &engine.Context[[]float64]{Frag: f}
	err = CF{}.DecodePartial(q, ctx, data)
	if err == nil {
		_, err = CF{}.Assemble(q, []*engine.Context[[]float64]{ctx})
	}
	if want := fmt.Sprintf("hold 1 values, want %d", q.Cfg.Factors); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a one-value factor vector: %v, want an error saying %q", err, want)
	}
}
