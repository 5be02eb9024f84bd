package store

import (
	"os"
	"path/filepath"
	"testing"

	"grape/internal/graph"
)

// FuzzSnapshotRoundTrip throws arbitrary bytes at the snapshot parser: it
// must never panic, and anything it does accept must be a valid graph. The
// corpus is seeded with real snapshots (and light mutations of them) so the
// fuzzer starts past the magic/CRC gates.
func FuzzSnapshotRoundTrip(f *testing.F) {
	dir := f.TempDir()
	for seed := int64(0); seed < 4; seed++ {
		for _, directed := range []bool{true, false} {
			g := testGraph(seed, directed).Freeze()
			path := filepath.Join(dir, "seed.grs")
			if _, err := WriteSnapshotFile(path, g, uint64(seed)); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if len(data) > snapHeaderSize {
				flipped := append([]byte(nil), data...)
				flipped[snapHeaderSize+seedOffset(seed, len(flipped)-snapHeaderSize)] ^= 0x10
				f.Add(flipped)
				f.Add(data[:snapHeaderSize])
				f.Add(data[:len(data)-1])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("GRAPESNP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Parse from aligned memory, exactly as the plain-read path does —
		// fuzz inputs carry no alignment guarantee.
		buf := graph.AlignedBuf(len(data))
		copy(buf, data)
		g, si, err := parseSnapshot(buf)
		if err != nil {
			return
		}
		defer si.Close()
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted snapshot decodes to invalid graph: %v", err)
		}
		// Round-trip: re-writing the accepted graph must succeed.
		p := filepath.Join(t.TempDir(), "rt.grs")
		if _, err := WriteSnapshotFile(p, g, si.Epoch); err != nil {
			t.Fatalf("rewriting accepted snapshot: %v", err)
		}
	})
}

func seedOffset(seed int64, span int) int64 {
	if span <= 0 {
		return 0
	}
	return (seed * 37) % int64(span)
}
