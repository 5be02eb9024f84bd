package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

func addr(p *byte) uintptr { return uintptr(unsafe.Pointer(p)) }

func flatSample(directed bool) *Graph {
	g := New()
	if !directed {
		g = NewUndirected()
	}
	g.AddVertex(10, "person")
	g.AddVertex(3, "")
	g.AddVertex(77, "product")
	g.SetProps(10, []string{"db", "graph"})
	g.AddLabeledEdge(10, 3, 1.5, "follows")
	g.AddLabeledEdge(3, 77, 2.25, "")
	g.AddEdge(10, 77, 0.125)
	return g
}

func TestFlatRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := flatSample(directed)
		buf := AppendFlat(nil, g)
		if len(buf)%8 != 0 {
			t.Fatalf("directed=%v: wire form is %d bytes, not a multiple of 8", directed, len(buf))
		}
		got, used, err := DecodeFlat(buf)
		if err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
		if used != len(buf) {
			t.Fatalf("directed=%v: consumed %d of %d bytes", directed, used, len(buf))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("directed=%v: decoded graph invalid: %v", directed, err)
		}
		// dense order and adjacency order must survive exactly — worker-side
		// iteration order, and hence PEval behaviour, depends on them
		if err := Diff(g, got); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
		equalGraphs(t, g, got)
	}
	// a NaN weight travels by its bits, and Diff compares weights by bits
	g := New()
	g.AddEdge(1, 2, math.NaN())
	got, _, err := DecodeFlat(AppendFlat(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(g, got); err != nil {
		t.Fatalf("NaN weight: %v", err)
	}
	for _, e := range []struct {
		to    ID
		w     float64
		label string
	}{{2, 1, ""}, {1, math.NaN(), ""}, {2, math.NaN(), "x"}} {
		h := NewBuilder()
		h.AddVertex(1, "")
		h.AddVertex(2, "")
		h.AddLabeledEdge(1, e.to, e.w, e.label)
		if Diff(g, h.Graph()) == nil {
			t.Errorf("Diff misses an out-edge changed to %+v", e)
		}
	}
}

// TestFlatMisalignedTakesCopyPath: the wire form does not depend on what
// precedes it, and a start that is not 8-aligned takes the copy path to an
// equal graph that shares nothing with the input.
func TestFlatMisalignedTakesCopyPath(t *testing.T) {
	g := flatSample(true)
	aligned := AppendFlat(nil, g)
	for shift := 1; shift < 8; shift++ {
		buf := AppendFlat(make([]byte, shift, shift+len(aligned)), g)
		if !bytes.Equal(buf[shift:], aligned) {
			t.Fatalf("shift %d: encoding depends on the prefix", shift)
		}
		frame := append([]byte(nil), buf...)
		got, used, err := DecodeFlat(buf[shift:])
		if err != nil || used != len(aligned) {
			t.Fatalf("shift %d: used %d, err %v", shift, used, err)
		}
		equalGraphs(t, g, got)
		got.AddEdge(10, 3, 9)
		if !bytes.Equal(buf, frame) {
			t.Fatalf("shift %d: decoding or mutating wrote into the input", shift)
		}
	}
}

// TestFlatAliasesFrameAndSplicesToHeap: on an aliasing host the decoded CSR
// arrays are views into the frame, and a splice of the decoded graph writes
// to the heap and never to the frame.
func TestFlatAliasesFrameAndSplicesToHeap(t *testing.T) {
	g := randomGraph(7, true)
	buf := AppendFlat(nil, g)
	frame := append([]byte(nil), buf...)
	got, _, err := DecodeFlat(buf)
	if err != nil {
		t.Fatal(err)
	}
	if CanAlias() && len(got.ids) > 0 {
		lo, hi := &buf[0], &buf[len(buf)-1]
		p := sliceBytes(got.ids)
		if !(addr(&p[0]) >= addr(lo) && addr(&p[len(p)-1]) <= addr(hi)) {
			t.Fatal("aligned input was copied, not aliased")
		}
	}
	got.AddLabeledEdge(9999, 9998, 1.25, "new")
	got.AddVertex(9997, "fresh")
	got.AddProp(got.IDAt(0), "p")
	for _, id := range got.Vertices() {
		if es := got.Out(id); len(es) > 0 {
			if _, ok := got.RemoveEdge(id, es[0].To, es[0].Label); !ok {
				t.Fatal("remove failed")
			}
			break
		}
	}
	if !bytes.Equal(buf, frame) {
		t.Fatal("mutation wrote through the frame")
	}
}

func TestDecodeFlatRejectsGarbage(t *testing.T) {
	good := AppendFlat(nil, flatSample(true))
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeFlat(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, _, err := DecodeFlat([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage decoded without error")
	}
	ids, vlab, outOff, outDense, _ := flatLayout(3, 3, uint64(binary.LittleEndian.Uint32(good[24:])))
	corrupt := func(name string, off uint64, v byte) {
		bad := append([]byte(nil), good...)
		bad[off] = v
		if _, _, err := DecodeFlat(bad); err == nil {
			t.Errorf("%s: corrupt wire form accepted", name)
		}
	}
	corrupt("magic", 0, 'X')
	corrupt("unknown flag", 5, 1)
	corrupt("|V| beyond the bytes", 10, 1)
	corrupt("packed count beyond the bytes", 14, 1)
	corrupt("|E| above packed count", 16, 200)
	corrupt("strs length beyond the bytes", 26, 1)
	corrupt("duplicate id", ids+8, 10)
	corrupt("vertex label id out of range", vlab, 99)
	corrupt("offsets not monotone", outOff+4, 99)
	corrupt("dense target out of range", outDense, 3)
	corrupt("edge label id out of range", outDense+4, 99)
}

// TestDecodeCountsBeforeAllocating is the regression test for the varint
// decoder this codec replaced: the 5-byte input 01 80 80 80 40 read as
// "directed, |V| = 2^27" and sized a 4.6 GB index map from it before
// failing 17 s later. Every count is now checked against the bytes that
// remain before anything is sized from it, in every framing of the codec.
func TestDecodeCountsBeforeAllocating(t *testing.T) {
	hostile := [][]byte{{0x01, 0x80, 0x80, 0x80, 0x40}}
	// a well-formed header claiming the largest graph the fields can name
	huge := AppendFlat(nil, New())
	for _, off := range []int{8, 12, 24} {
		h := append([]byte(nil), huge...)
		h[off], h[off+1], h[off+2], h[off+3] = 0xff, 0xff, 0xff, 0x7e
		hostile = append(hostile, h)
	}
	for _, in := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeFlat(in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("% x: decoded without error", in)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("% x: allocated %d bytes before failing", in, got)
		}
	}
	// the string section's own counts
	for _, strs := range [][]byte{
		{0xff, 0xff, 0xff, 0x7f},                                   // label count
		{0x00, 0xff, 0xff, 0xff, 0x7f},                             // property entry count
		{0x00, 0x01, 0x00, 0xff, 0xff, 0xff, 0x7f},                 // property count of one entry
		{0x00, 0x01, 0x00, 0x00},                                   // an entry with no properties
		{0x00, 0x02, 0x00, 0x01, 0x01, 'a', 0x00, 0x01, 0x01, 'b'}, // one vertex named twice
		{0x00, 0x01, 0x01, 0x01, 0x01, 'a'},                        // a vertex past the graph
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := parseStrings(strs, 1)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("strs % x: parsed without error", strs)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("strs % x: allocated %d bytes before failing", strs, got)
		}
	}
}

// TestDegreeQueriesAllocateNothing: degree queries read the CSR offsets
// and never build an edge slice.
func TestDegreeQueriesAllocateNothing(t *testing.T) {
	g := randomGraph(3, true)
	ids := g.Vertices()
	if n := testing.AllocsPerRun(10, func() {
		for _, id := range ids {
			_ = g.OutDegree(id) + g.InDegree(id)
		}
	}); n != 0 {
		t.Fatalf("degree queries allocated %v times per sweep", n)
	}
}
