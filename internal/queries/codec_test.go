package queries

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// roundTrip asserts Decode(Encode(x)) == x under eq for every sample, that
// DecodeVal consumes exactly the bytes AppendVal produced, and that the
// samples written back to back, as an update batch holds them, decode in
// sequence to the end of the buffer — a batch's length is precisely the byte
// count a wire transport reports for it (see engine/codec.go).
func roundTrip[V any](t *testing.T, c engine.Codec[V], eq func(a, b V) bool, samples []V) {
	t.Helper()
	for _, v := range samples {
		buf := c.AppendVal(nil, v)
		got, used, err := c.DecodeVal(buf)
		if err != nil {
			t.Fatalf("decode(%v): %v", v, err)
		}
		if used != len(buf) {
			t.Fatalf("decode(%v) consumed %d of %d bytes", v, used, len(buf))
		}
		if !eq(got, v) {
			t.Fatalf("round trip: want %v, got %v", v, got)
		}
	}
	var buf []byte
	for _, v := range samples {
		buf = c.AppendVal(buf, v)
	}
	pos := 0
	for i, v := range samples {
		got, used, err := c.DecodeVal(buf[pos:])
		if err != nil || !eq(got, v) {
			t.Fatalf("back to back at %d: want %v, got %v (%v)", i, v, got, err)
		}
		pos += used
	}
	if pos != len(buf) {
		t.Fatalf("back-to-back decode consumed %d of %d bytes — transport-reported size would drift", pos, len(buf))
	}
}

// batch writes an engine update batch by hand: a uvarint count, then per
// update a uvarint position and the codec's encoding of the value.
func batch[V any](c engine.Codec[V], at []uint64, vals ...V) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(at)))
	for i, a := range at {
		buf = c.AppendVal(binary.AppendUvarint(buf, a), vals[i])
	}
	return buf
}

func TestCodecRoundTrips(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		roundTrip[float64](t, SSSP{}.WireCodec(), func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) },
			[]float64{0, 1.5, -3.25, seq.Inf, math.MaxFloat64, math.SmallestNonzeroFloat64})
	})
	t.Run("cc", func(t *testing.T) {
		roundTrip[graph.ID](t, CC{}.WireCodec(), func(a, b graph.ID) bool { return a == b },
			[]graph.ID{0, 1, 127, 128, 1 << 20, noComponent})
	})
	t.Run("sim", func(t *testing.T) {
		roundTrip[seq.SimBits](t, Sim{}.WireCodec(), func(a, b seq.SimBits) bool { return a == b },
			[]seq.SimBits{0, 1, fullMask, 0xdeadbeef})
	})
	t.Run("subiso", func(t *testing.T) {
		roundTrip[uint8](t, SubIso{}.WireCodec(), func(a, b uint8) bool { return a == b },
			[]uint8{0, 1, 255})
	})
	t.Run("tricount", func(t *testing.T) {
		roundTrip[uint8](t, TriCount{}.WireCodec(), func(a, b uint8) bool { return a == b },
			[]uint8{0, 42})
	})
	vecEq := func(a, b []float64) bool { return reflect.DeepEqual(a, b) }
	t.Run("keyword", func(t *testing.T) {
		roundTrip[kwVec](t, Keyword{}.WireCodec(), vecEq,
			[]kwVec{nil, {0}, {1.5, seq.Inf}, {0, 0, 0, 0}})
	})
	t.Run("cf", func(t *testing.T) {
		roundTrip[[]float64](t, CF{}.WireCodec(), vecEq,
			[][]float64{nil, {0.25}, {1, 2, 3, 4, 5, 6, 7, 8}})
	})
}

// TestVectorCodecNilSentinel pins the nil/empty distinction the Keyword and
// CF aggregates rely on: length 0 must decode to nil, not an empty slice.
func TestVectorCodecNilSentinel(t *testing.T) {
	c := Keyword{}.WireCodec()
	buf := c.AppendVal(nil, nil)
	v, _, err := c.DecodeVal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("nil vector decoded to non-nil %v", v)
	}
}

func TestQueryCodecRoundTrips(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		blob, err := SSSP{}.EncodeQuery(SSSPQuery{Source: 42})
		if err != nil {
			t.Fatal(err)
		}
		q, err := SSSP{}.DecodeQuery(blob)
		if err != nil || q.Source != 42 {
			t.Fatalf("got %+v, %v", q, err)
		}
	})
	t.Run("sim", func(t *testing.T) {
		p, err := PatternByName("triangle")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Sim{}.EncodeQuery(SimQuery{Pattern: p})
		if err != nil {
			t.Fatal(err)
		}
		q, err := Sim{}.DecodeQuery(blob)
		if err != nil {
			t.Fatal(err)
		}
		if q.Pattern.NumVertices() != p.NumVertices() || q.Pattern.NumEdges() != p.NumEdges() {
			t.Fatalf("pattern shape changed: %d/%d vs %d/%d",
				q.Pattern.NumVertices(), q.Pattern.NumEdges(), p.NumVertices(), p.NumEdges())
		}
	})
	t.Run("keyword", func(t *testing.T) {
		in := KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 7.5, UseIndex: true}
		blob, err := Keyword{}.EncodeQuery(in)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Keyword{}.DecodeQuery(blob)
		if err != nil || !reflect.DeepEqual(q, in) {
			t.Fatalf("got %+v, %v", q, err)
		}
	})
	t.Run("cf", func(t *testing.T) {
		in := CFQuery{Cfg: seq.CFConfig{Factors: 8, Epochs: 20, LR: 0.02, Reg: 0.05, Seed: -3}}
		blob, err := CF{}.EncodeQuery(in)
		if err != nil {
			t.Fatal(err)
		}
		q, err := CF{}.DecodeQuery(blob)
		if err != nil || !reflect.DeepEqual(q, in) {
			t.Fatalf("got %+v, %v", q, err)
		}
	})
	t.Run("subiso", func(t *testing.T) {
		p, err := PatternByName("chain3")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := SubIso{}.EncodeQuery(SubIsoQuery{Pattern: p, MaxMatches: 9})
		if err != nil {
			t.Fatal(err)
		}
		q, err := SubIso{}.DecodeQuery(blob)
		if err != nil || q.MaxMatches != 9 || q.Pattern.NumVertices() != p.NumVertices() {
			t.Fatalf("got %+v, %v", q, err)
		}
	})
}

// FuzzCodecRoundTrip feeds arbitrary bytes to every registered codec's
// DecodeVal and to the pattern-query decoders. Decoders must never panic;
// whatever they do decode must re-encode and decode back to the same value
// (no lossy or ambiguous encodings on the wire).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(batch(SSSP{}.WireCodec(), []uint64{3}, 1.5))
	f.Add(CF{}.WireCodec().AppendVal(nil, []float64{1, 2, 3}))
	// well-formed batches, as byte shapes for the value decoders: a position
	// far past any border, a lone update, a descending pair. The coordinator
	// checks a reply's positions against its sender's border and the
	// ascending order a flush emits, and fails the run on the first and the
	// last — no panic, no fold (engine.TestReplyNamingForeignVertexFailsRun,
	// engine.FuzzEngineFrames)
	f.Add(batch(CC{}.WireCodec(), []uint64{999999}, 1))
	f.Add(batch(SSSP{}.WireCodec(), []uint64{1}, 0))
	f.Add(batch(SSSP{}.WireCodec(), []uint64{3, 2}, 0, 0))
	// pattern blobs (graph.AppendFlat), bare and behind SubIso's match cap,
	// and the input that made the varint graph decoder they replaced size a
	// 4.6 GB map
	for _, p := range Patterns() {
		sim, _ := Sim{}.EncodeQuery(SimQuery{Pattern: p})
		sub, _ := SubIso{}.EncodeQuery(SubIsoQuery{Pattern: p, MaxMatches: 9})
		f.Add(sim)
		f.Add(sub)
	}
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x40})
	// batches whose count exceeds what the bytes behind it could hold: refused
	// before anything is sized from the count (engine's batch decoder), the
	// second one a count of 2^40
	f.Add([]byte{33, 1})
	f.Add(append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, make([]byte, 64)...))
	// an empty-batch reply frame whose active flag is 2 (engine's decodeReply
	// rejects it: TestDecodeBatchCountsBeforeAllocating)
	f.Add([]byte{0, 6, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := (Sim{}).DecodeQuery(data); err == nil {
			fuzzPattern(t, q.Pattern)
		}
		if q, err := (SubIso{}).DecodeQuery(data); err == nil {
			fuzzPattern(t, q.Pattern)
		}
		fuzzOne[float64](t, SSSP{}.WireCodec(), func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}, data)
		fuzzOne[graph.ID](t, CC{}.WireCodec(), func(a, b graph.ID) bool { return a == b }, data)
		fuzzOne[seq.SimBits](t, Sim{}.WireCodec(), func(a, b seq.SimBits) bool { return a == b }, data)
		fuzzOne[uint8](t, SubIso{}.WireCodec(), func(a, b uint8) bool { return a == b }, data)
		// bitwise: arbitrary bytes can decode to NaN, where == would lie
		vecEq := func(a, b []float64) bool {
			if len(a) != len(b) || (a == nil) != (b == nil) {
				return false
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return false
				}
			}
			return true
		}
		fuzzOne[kwVec](t, Keyword{}.WireCodec(), vecEq, data)
	})
}

// fuzzPattern: an accepted pattern blob is a valid frozen graph that
// re-encodes to a blob decoding to an equal graph.
func fuzzPattern(t *testing.T, p *graph.Graph) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("accepted pattern is invalid: %v", err)
	}
	blob, err := Sim{}.EncodeQuery(SimQuery{Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Sim{}.DecodeQuery(blob)
	if err != nil {
		t.Fatalf("re-encoded pattern failed to decode: %v", err)
	}
	if err := graph.Diff(p, q.Pattern); err != nil {
		t.Fatalf("pattern not stable: %v", err)
	}
}

func fuzzOne[V any](t *testing.T, c engine.Codec[V], eq func(a, b V) bool, data []byte) {
	t.Helper()
	v, used, err := c.DecodeVal(data)
	if err != nil {
		return
	}
	if used < 0 || used > len(data) {
		t.Fatalf("decoder consumed %d of %d bytes", used, len(data))
	}
	buf := c.AppendVal(nil, v)
	v2, used2, err := c.DecodeVal(buf)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	if used2 != len(buf) || !eq(v, v2) {
		t.Fatalf("unstable encoding: %v -> %v (consumed %d of %d)", v, v2, used2, len(buf))
	}
}
