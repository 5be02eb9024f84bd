package queries

import (
	"reflect"
	"testing"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// roundTrip asserts that V is in the engine's value table (a nil codec
// panics) and that each sample comes back as it went in, by exactly the bytes
// written.
func roundTrip[V any](t *testing.T, samples ...V) {
	t.Helper()
	c := engine.ValueCodec[V](0)
	for _, v := range samples {
		buf := c.AppendVal(nil, v)
		if got, used, err := c.DecodeVal(buf); err != nil || used != len(buf) || !reflect.DeepEqual(got, v) {
			t.Fatalf("%v: decoded %v from %d of %d bytes (%v)", v, got, used, len(buf), err)
		}
	}
}

// TestCodecRoundTrips: every class's update-parameter type is in the value
// table, and the class's own sentinels cross the wire intact (the value
// table's formats themselves are held in internal/engine).
func TestCodecRoundTrips(t *testing.T) {
	t.Run("sssp", func(t *testing.T) { roundTrip(t, 0, 1.5, seq.Inf) })
	t.Run("cc", func(t *testing.T) { roundTrip(t, 0, 128, noComponent) })
	t.Run("sim", func(t *testing.T) { roundTrip(t, 0, fullMask) })
	t.Run("subiso", func(t *testing.T) { roundTrip[uint8](t, 0, 1) })
	t.Run("tricount", func(t *testing.T) { roundTrip[uint8](t, 0, 1) })
	t.Run("keyword", func(t *testing.T) { roundTrip(t, nil, kwVec{1.5, seq.Inf}) })
	t.Run("cf", func(t *testing.T) { roundTrip(t, nil, []float64{1, 2, 3, 4, 5, 6, 7, 8}) })
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

// FuzzCodecRoundTrip feeds arbitrary bytes to the pattern-query decoders.
// Decoders must never panic; whatever they do decode must re-encode and
// decode back to the same pattern. (The value codecs are fuzzed in
// internal/engine, FuzzValueCodecs.)
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// engine update batches and a vector, as byte shapes
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f})
	f.Add(append([]byte{3}, make([]byte, 24)...))
	f.Add([]byte{1, 0xbf, 0x84, 0x3d, 1})
	f.Add(append([]byte{1, 1}, make([]byte, 8)...))
	f.Add(append(append([]byte{2, 3}, make([]byte, 8)...), append([]byte{2}, make([]byte, 8)...)...))
	// pattern blobs, bare and behind SubIso's match cap, and the input that
	// made the varint graph decoder they replaced size a 4.6 GB map
	for _, p := range Patterns() {
		sim, _ := Sim{}.EncodeQuery(SimQuery{Pattern: p})
		sub, _ := SubIso{}.EncodeQuery(SubIsoQuery{Pattern: p, MaxMatches: 9})
		f.Add(sim)
		f.Add(sub)
	}
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x40})
	f.Add([]byte{33, 1}) // counts past the bytes behind them, the second 2^40
	f.Add(append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, make([]byte, 64)...))
	f.Add([]byte{0, 6, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := (Sim{}).DecodeQuery(data); err == nil {
			fuzzPattern(t, q.Pattern)
		}
		if q, err := (SubIso{}).DecodeQuery(data); err == nil {
			fuzzPattern(t, q.Pattern)
		}
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
