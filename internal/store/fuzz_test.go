package store

import (
	"encoding/binary"
	"hash/crc32"
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
			dup := repeatID(data)
			buf := graph.AlignedBuf(len(dup))
			copy(buf, dup)
			if _, si, err := parseSnapshot(buf); err == nil {
				si.Close()
				f.Fatalf("seed %d: a snapshot naming one vertex ID twice was accepted", seed)
			}
			f.Add(dup)
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

// repeatID returns a copy of a snapshot whose ID section names its first
// vertex again at the last position, with the section and header checksums
// recomputed: nothing but the distinct-ID check stands between it and a graph.
func repeatID(data []byte) []byte {
	out := append([]byte(nil), data...)
	le := binary.LittleEndian
	off, n := le.Uint64(out[48:]), le.Uint64(out[56:])
	ids := out[off : off+n]
	copy(ids[n-8:], ids[:8])
	le.PutUint32(out[64:], crc32.Checksum(ids, castagnoli))
	le.PutUint32(out[snapHeaderSize-8:], crc32.Checksum(out[:snapHeaderSize-8], castagnoli))
	return out
}

func seedOffset(seed int64, span int) int64 {
	if span <= 0 {
		return 0
	}
	return (seed * 37) % int64(span)
}
