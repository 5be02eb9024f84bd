package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grape/internal/graph"
)

// FuzzSnapshotRoundTrip throws arbitrary bytes at the snapshot parser: it
// must never panic, and anything it does accept must be a valid graph. The
// corpus is seeded with real snapshots and light mutations of them, one
// naming format version 1, and with snapshots of 2–6-vertex graphs with and
// without properties, small enough that the fuzzer mutates the property
// entries rather than spend its time minimising; each input is also parsed
// resealed, so the fuzzer's mutations of the body reach graph.DecodeFlat past
// the checksums.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for n := 2; n <= 6; n++ {
		for _, props := range []bool{false, true} {
			f.Add(encodeSnapshot(tinyGraph(n, props), uint64(n)))
		}
	}
	dir := f.TempDir()
	var v2 []byte
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
			v2 = data
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
			if _, _, err := parseSnapshot(buf); err == nil || !strings.Contains(err.Error(), "IDs repeat") {
				f.Fatalf("seed %d: a snapshot naming one vertex ID twice: %v, want the distinct-ID check's refusal", seed, err)
			}
			f.Add(dup)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("GRAPESNP"))
	f.Add(withVersion(v2, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		parseAccepted(t, data)
		if len(data) >= snapHeaderSize {
			// The same bytes resealed: a mutation that breaks a checksum
			// still reaches graph.DecodeFlat.
			parseAccepted(t, reseal(append([]byte(nil), data...)))
		}
	})
}

// tinyGraph returns a directed n-vertex path with labels, an edge label and,
// if props, properties on every other vertex — one, then two.
func tinyGraph(n int, props bool) *graph.Graph {
	b := graph.NewBuilder()
	for i := range n {
		id := graph.ID(3*i + 1)
		b.AddVertex(id, []string{"", "a"}[i%2])
		if props && i%2 == 0 {
			b.SetProps(id, []string{"k", "w"}[:1+i%4/2])
		}
		if i > 0 {
			b.AddLabeledEdge(id-3, id, float64(i), []string{"", "x"}[i%2])
		}
	}
	return b.Graph()
}

// parseAccepted parses data as a snapshot from aligned memory, exactly as
// the plain-read path does — fuzz inputs carry no alignment guarantee — and,
// if the parser accepts it, requires a valid graph whose own snapshot parses
// back to a graph with the same snapshot, byte for byte.
func parseAccepted(t *testing.T, data []byte) {
	buf := graph.AlignedBuf(len(data))
	copy(buf, data)
	g, si, err := parseSnapshot(buf)
	if err != nil {
		return
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("accepted snapshot decodes to invalid graph: %v", err)
	}
	image := encodeSnapshot(g, si.Epoch)
	back, bsi, err := parseSnapshot(image)
	if err != nil {
		t.Fatalf("re-encoding an accepted snapshot: %v", err)
	}
	if !bytes.Equal(encodeSnapshot(back, bsi.Epoch), image) {
		t.Fatal("an accepted snapshot does not round-trip")
	}
}

// reseal rewrites a snapshot image's body length and both checksums in
// place to match its bytes, and returns it.
func reseal(b []byte) []byte {
	le := binary.LittleEndian
	le.PutUint64(b[24:], uint64(len(b)-snapHeaderSize))
	le.PutUint32(b[32:], crc32.Checksum(b[snapHeaderSize:], castagnoli))
	le.PutUint32(b[44:], crc32.Checksum(b[:44], castagnoli))
	return b
}

// repeatID returns a copy of a snapshot whose ID array names its first
// vertex again at the last position, resealed: nothing but the distinct-ID
// check stands between it and a graph.
func repeatID(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := out[snapHeaderSize:]
	le := binary.LittleEndian
	nv := int(le.Uint32(body[8:]))
	ids := body[graph.Align8(32+int(le.Uint32(body[24:]))):][:8*nv]
	copy(ids[8*(nv-1):], ids[:8])
	return reseal(out)
}

// withVersion returns a copy of a snapshot whose header names format version
// v, resealed.
func withVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[8:], v)
	return reseal(out)
}

func seedOffset(seed int64, span int) int64 {
	if span <= 0 {
		return 0
	}
	return (seed * 37) % int64(span)
}
