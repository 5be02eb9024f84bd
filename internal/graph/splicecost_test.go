package graph_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// spliceStream is a directed RoadGrid(side, side) with its reverse CSR
// derived, and batches of 16 mixed edge updates against it (gen.UpdateStream,
// DeleteP 0.4) as graph.Batches.
func spliceStream(side, batches int) (*graph.Graph, []*graph.Batch) {
	g := gen.RoadGrid(side, side, 1)
	g.InAt(0)
	var out []*graph.Batch
	for _, ups := range gen.UpdateStream(g, gen.StreamConfig{Batches: batches, BatchSize: 16, DeleteP: 0.4, Seed: 1}) {
		out = append(out, batchOf(ups))
	}
	return g, out
}

// batchOf is one generated batch as a graph.Batch.
func batchOf(ups []gen.Update) *graph.Batch {
	b := new(graph.Batch)
	for _, u := range ups {
		if u.Del {
			b.RemoveEdge(u.From, u.To, u.Label)
		} else {
			b.AddEdge(u.From, u.To, u.W, u.Label)
		}
	}
	return b
}

// spliceRead splices b into g and reads the in-edges of vertex read, as a
// session's repair reads some after every batch.
func spliceRead(tb testing.TB, g *graph.Graph, b *graph.Batch, read graph.ID) *graph.Graph {
	ng, _, err := graph.Splice(g, b)
	if err != nil {
		tb.Fatal(err)
	}
	i, _ := ng.Index(read)
	ng.InAt(i)
	return ng
}

// spliceBatchBytes is the mean bytes one steady-state batch allocates on
// RoadGrid(side, side): 8 warm-up batches, then 64 measured, folds included,
// with one InAt after each.
func spliceBatchBytes(t *testing.T, side int) float64 {
	const warm, measured = 8, 64
	g, batches := spliceStream(side, warm+measured)
	for _, b := range batches[:warm] {
		g = spliceRead(t, g, b, 0)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k, b := range batches[warm:] {
		g = spliceRead(t, g, b, graph.ID(k*7%(side*side)))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	return float64(after.TotalAlloc-before.TotalAlloc) / measured
}

// TestSpliceCostBounded: a 16-edge batch costs what it touches, not |G|. The
// bytes a steady-state batch allocates — splice and the first InAt after it,
// folds included — on a 192² road grid are at most twice those on a 48² one,
// 16 times smaller. When every splice rebuilt the whole CSR and the first
// InAt the whole reverse CSR, they grew with |E|: ≈ 16× (go1.24, amd64).
func TestSpliceCostBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations would swamp the budget")
	}
	small, large := spliceBatchBytes(t, 48), spliceBatchBytes(t, 192)
	t.Logf("bytes a batch: %.0f on 48², %.0f on 192² (%.2f×)", small, large, large/small)
	if large > 2*small {
		t.Fatalf("a batch on 192² allocates %.0f bytes, over twice the %.0f on 48²", large, small)
	}
}

// BenchmarkSpliceBatch splices one 16-edge batch and reads InAt once after
// it, on road grids of three sizes: ns and bytes per batch should not grow
// with the side.
func BenchmarkSpliceBatch(b *testing.B) {
	for _, side := range []int{48, 96, 192} {
		b.Run(fmt.Sprint(side), func(b *testing.B) {
			const cycle = 256
			g0, batches := spliceStream(side, cycle)
			g := g0
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if k%cycle == 0 && k > 0 { // the stream is spent: start it over
					b.StopTimer()
					g = g0
					b.StartTimer()
				}
				g = spliceRead(b, g, batches[k%cycle], graph.ID(k*7%(side*side)))
			}
		})
	}
}

// TestSpliceRetainedBytes: after 200 batches on serve-churn's social graph,
// PreferentialAttachment(10000, 5), with InAt read after each, the heap the
// spliced graph retains — patches, and the arrays they patch — is at most
// 1.15× what a Builder-built equal graph with its reverse CSR derived
// retains.
func TestSpliceRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations would swamp the budget")
	}
	spliced := func() *graph.Graph {
		g := gen.PreferentialAttachment(10000, 5, 1)
		g.InAt(0)
		for k, ups := range gen.UpdateStream(g, gen.StreamConfig{Batches: 200, BatchSize: 16, DeleteP: 0.4, Seed: 1}) {
			g = spliceRead(t, g, batchOf(ups), graph.ID(k*37%10000))
		}
		return g
	}
	built := func() *graph.Graph {
		g := spliced()
		b := graph.NewBuilder()
		for i, id := range g.Vertices() {
			b.AddVertex(id, g.LabelAt(int32(i)))
		}
		for i, id := range g.Vertices() {
			for _, e := range g.OutAt(int32(i)) {
				b.AddLabeledEdge(id, g.IDAt(e.To), e.W, g.LabelName(e.Label))
			}
		}
		h := b.Graph()
		h.InAt(0)
		return h
	}
	got, want := retained(spliced), retained(built)
	t.Logf("retained: spliced %.2f MB, built %.2f MB (%.3f×)", float64(got)/1e6, float64(want)/1e6, float64(got)/float64(want))
	if float64(got) > 1.15*float64(want) {
		t.Fatalf("a spliced graph retains %d bytes, over 1.15× the %d of an equal built one", got, want)
	}
}

// retained is the heap the graph build returns holds: the live heap after a
// collection with the graph reachable, less that after one without it.
func retained(build func() *graph.Graph) int64 {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	g := build()
	with := heap()
	runtime.KeepAlive(g)
	return with - heap()
}

// TestSplicedConcurrentReads: concurrent first readers of a spliced graph's
// views — the reverse CSR it was handed, and the flat arrays OutCSR and
// InCSR fold its patches into — through the graph and a clone sharing them,
// all read what a flat copy of the graph reads. The 24² grid folds every
// third batch, so the eleventh leaves both patches in place. Run under -race.
func TestSplicedConcurrentReads(t *testing.T) {
	g, batches := spliceStream(24, 11)
	for k, b := range batches {
		g = spliceRead(t, g, b, graph.ID(k))
	}
	flat, _, err := graph.DecodeFlat(graph.AppendFlat(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	wantOff, wantOut := flat.OutCSR()
	wantInOff, wantIn := flat.InCSR()
	var wg sync.WaitGroup
	for _, h := range []*graph.Graph{g, g.Clone()} {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range int32(h.NumVertices()) {
					if !slices.Equal(h.InAt(i), flat.InAt(i)) || !slices.Equal(h.OutAt(i), flat.OutAt(i)) {
						t.Errorf("vertex %d reads other edges than the flat copy", i)
						return
					}
				}
				off, out := h.OutCSR()
				inOff, in := h.InCSR()
				if !slices.Equal(off, wantOff) || !slices.Equal(out, wantOut) || !slices.Equal(inOff, wantInOff) || !slices.Equal(in, wantIn) {
					t.Error("the folded CSR differs from the flat copy's")
				}
			}()
		}
	}
	wg.Wait()
}
