package gen

import (
	"math/rand"

	"grape/internal/graph"
)

// Update is one edge mutation of a generated update stream: an insertion by
// default, a deletion of a live edge instance when Del is set. The type
// mirrors engine.EdgeUpdate field-for-field; gen cannot import engine (the
// engine's tests import gen), so harnesses convert at the call site.
type Update struct {
	From, To graph.ID
	W        float64
	Label    string
	Del      bool
}

// StreamConfig controls UpdateStream generation.
type StreamConfig struct {
	Batches   int
	BatchSize int
	// DeleteP is the probability each update is a deletion (when any live
	// edge remains to delete); the rest are insertions between existing
	// vertices.
	DeleteP float64
	// Labels, when non-empty, is the label pool insertions draw from;
	// otherwise insertions reuse the label of a random live edge (or "" on
	// an unlabeled graph).
	Labels []string
	// MaxW bounds insertion weights: uniform in [1, MaxW). Zero means 10.
	MaxW float64
	Seed int64
}

// UpdateStream returns cfg.Batches batches of edge updates that are legal to
// replay against g in order: every deletion names an edge instance live at
// its point in the stream (counting the stream's own earlier insertions and
// deletions), and every insertion connects vertices of g. The generator
// never mutates g — callers apply the batches to g and to any shadow copy
// themselves. Deterministic in cfg.Seed.
func UpdateStream(g *graph.Graph, cfg StreamConfig) [][]Update {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.MaxW <= 0 {
		cfg.MaxW = 10
	}
	vs := g.SortedVertices()
	type inst struct {
		from, to graph.ID
		label    string
	}
	var live []inst
	for _, u := range g.SortedIndices() {
		for _, e := range g.OutAt(u) {
			live = append(live, inst{g.IDAt(u), g.IDAt(e.To), g.LabelName(e.Label)})
		}
	}
	pickLabel := func() string {
		if len(cfg.Labels) > 0 {
			return cfg.Labels[rng.Intn(len(cfg.Labels))]
		}
		if len(live) > 0 {
			return live[rng.Intn(len(live))].label
		}
		return ""
	}
	out := make([][]Update, cfg.Batches)
	for b := range out {
		batch := make([]Update, 0, cfg.BatchSize)
		for k := 0; k < cfg.BatchSize; k++ {
			if len(live) > 0 && rng.Float64() < cfg.DeleteP {
				i := rng.Intn(len(live))
				e := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				batch = append(batch, Update{From: e.from, To: e.to, Label: e.label, Del: true})
				continue
			}
			u := vs[rng.Intn(len(vs))]
			v := vs[rng.Intn(len(vs))]
			lbl := pickLabel()
			batch = append(batch, Update{From: u, To: v, W: 1 + rng.Float64()*(cfg.MaxW-1), Label: lbl})
			live = append(live, inst{u, v, lbl})
		}
		out[b] = batch
	}
	return out
}
