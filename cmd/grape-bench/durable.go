package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"grape/internal/engine"
	"grape/internal/experiments"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/store"
)

// durableRows measures the durable store behind grape-serve -data. The load
// rows are the restart question — how much work stands between a killed
// server and a resident graph with a known cut — under its two cold-start
// paths:
//
//	durable/load/snapshot  binary snapshot read + persisted cut decoded
//	durable/load/mmap      snapshot mapped zero-copy + persisted cut decoded
//
// Fragment construction (partition.Build) is deliberately outside both: it
// is identical shared work downstream of either path, and the rows price
// what a restart costs before it — reading the graph and its persisted cut
// instead of repartitioning.
//
// The journal rows price the write-ahead guarantee per mutation batch:
// fsync is the full POST /update durability cost, mem is the same encode +
// hash-chain with the disk taken out (the delta is almost pure fsync).
func durableRows(sc experiments.Scale) ([]benchRow, error) {
	road := sc.Road()
	const workers = 8
	strat, err := partition.ByName("fennel")
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Workers: workers, Strategy: strat}

	dir, err := os.MkdirTemp("", "grape-bench-durable")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// One durable graph store holding road at epoch 1, its fennel cut cached
	// — the exact state a serving restart recovers from.
	st, err := store.Open(filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	gs, err := st.Graph("road")
	if err != nil {
		return nil, err
	}
	if err := gs.Create(road, 1); err != nil {
		return nil, err
	}
	layout, err := engine.BuildLayout(road, opts)
	if err != nil {
		return nil, err
	}
	if err := gs.SaveLayout(layout.Asg, 1, "fennel", workers, 0); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, "data", "road", "snap-0000000000000001.grs")
	if _, err := os.Stat(snapPath); err != nil {
		return nil, err
	}

	var rows []benchRow
	addRow := func(name string, fn func() error) error {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					runErr = err
					b.Fatal(err)
				}
			}
		})
		if runErr != nil {
			return fmt.Errorf("%s: %w", name, runErr)
		}
		rows = append(rows, benchRow{Name: name, NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()})
		fmt.Fprintf(os.Stderr, "grape-bench: %-22s %12d ns/op %9d allocs/op\n", name, r.NsPerOp(), r.AllocsPerOp())
		return nil
	}

	loadCut := func(g *graph.Graph) error {
		asg, err := gs.LoadLayout(g, 1, "fennel", workers, 0)
		if err != nil {
			return err
		}
		if asg == nil {
			return fmt.Errorf("layout cache miss on a warm store")
		}
		return nil
	}
	if err := addRow("durable/load/snapshot", func() error {
		g, _, err := store.ReadSnapshotFile(snapPath)
		if err != nil {
			return err
		}
		return loadCut(g)
	}); err != nil {
		return nil, err
	}
	if err := addRow("durable/load/mmap", func() error {
		g, si, err := store.OpenSnapshotFile(snapPath)
		if err != nil {
			return err
		}
		if err := loadCut(g); err != nil {
			si.Close()
			return err
		}
		return si.Close()
	}); err != nil {
		return nil, err
	}

	// Journal overhead per batch: an sssp-session record with a 4-update
	// mixed batch, the shape POST /update journals.
	rec := store.Record{
		PreEpoch: 1,
		Program:  "sssp",
		Query:    "source=0",
		Updates: []engine.EdgeUpdate{
			{From: 0, To: 100, W: 0.5},
			{From: 1, To: 101, W: 0.25},
			{From: 0, To: 100, W: 0.5, Del: true},
			{From: 2, To: 102, W: 0.75},
		},
	}
	if err := addRow("durable/journal/fsync", func() error {
		rec.PreEpoch++ // keep records distinct; the store does not interpret them here
		return gs.Append(rec)
	}); err != nil {
		return nil, err
	}
	if err := addRow("durable/journal/mem", func() error {
		payload := store.AppendRecord(nil, rec)
		h := sha256.New()
		h.Write(payload)
		h.Sum(nil)
		return nil
	}); err != nil {
		return nil, err
	}
	// the fsync row appended thousands of records; drop them so nothing ever
	// tries to replay this scratch store
	if err := gs.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}
