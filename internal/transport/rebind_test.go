package transport_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/seq"
)

// rebindLayouts are three layouts whose fragments differ in number, size and
// hop depth, in the order A, B, A: a scratch RunOnLayout pooled on one is
// rebound to the next.
func rebindLayouts(t *testing.T) ([]*partition.Layout, []map[graph.ID]float64) {
	t.Helper()
	road := gen.RoadGrid(24, 24, 1)
	social := gen.PreferentialAttachment(400, 3, 2)
	a, err := engine.BuildLayout(road, engine.Options{Workers: 4, Strategy: partition.TwoD{Cols: 24}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.BuildLayout(social, engine.Options{Workers: 3, ExpandHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := seq.Dijkstra(road, 0), seq.Dijkstra(social, 0)
	return []*partition.Layout{a, b, a}, []map[graph.ID]float64{wantA, wantB, wantA}
}

// runRebound runs sssp from vertex 0 over each layout in turn, on the bus
// and over loopback sockets, failing on any answer other than want's.
func runRebound(t *testing.T, who string, layouts []*partition.Layout, want []map[graph.ID]float64) {
	for i, layout := range layouts {
		name := fmt.Sprintf("%s, layout %d (%d fragments, hops %d)", who, i, len(layout.Fragments), layout.Hops)
		got, _, err := engine.RunOnLayout(context.Background(), layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{})
		if err != nil {
			t.Errorf("%s, bus: %v", name, err)
		} else if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s, bus: answer differs from seq.Dijkstra", name)
		}
		tr, finish := startFleet(t, len(layout.Fragments), -1, plainLink)
		got, _, err = engine.RunOnLayout(context.Background(), layout, queries.SSSP{}, queries.SSSPQuery{Source: 0}, engine.Options{Transport: tr})
		finish()
		if err != nil {
			t.Errorf("%s, wire: %v", name, err)
		} else if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s, wire: answer differs from seq.Dijkstra", name)
		}
	}
}

// TestRunOnLayoutRebindIsInvisible: RunOnLayout's pooled scratch, rebound
// from one layout to another of a different fragment count, size and hop
// depth and back, answers as internal/seq does on both substrates; so do two
// callers drawing from the one pool at once (run it under -race).
func TestRunOnLayoutRebindIsInvisible(t *testing.T) {
	layouts, want := rebindLayouts(t)
	runRebound(t, "sequential", layouts, want)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runRebound(t, fmt.Sprintf("caller %d", c), layouts, want)
		}()
	}
	wg.Wait()
}
