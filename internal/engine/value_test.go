package engine

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"grape/internal/graph"
)

// declared is declare for a V known to be in the table (else a nil kind).
func declared[V any](spec VarSpec[V]) vars[V] {
	d, _ := declare("test", spec)
	return d
}

// kindFor is V's row of the value table.
func kindFor[V any]() *valueKind[V] { return declared(VarSpec[V]{}).valueKind }

type sample[V any] struct {
	v    V
	hex  string // the encoding
	size int    // the bus's estimate
}

// holdGolden requires each sample to encode to its bytes, decode back from
// exactly them, and carry its bus size.
func holdGolden[V any](t *testing.T, samples ...sample[V]) {
	t.Helper()
	k := kindFor[V]()
	for _, s := range samples {
		buf := k.codec.AppendVal(nil, s.v)
		got, used, err := k.codec.DecodeVal(buf)
		if hex.EncodeToString(buf) != s.hex || err != nil || used != len(buf) || !sameBits(got, s.v) || k.size(s.v) != s.size {
			t.Errorf("%T %v: encodes to %x, decodes to %v from %d bytes (%v), bus size %d; want %s, size %d", s.v, s.v, buf, got, used, err, k.size(s.v), s.hex, s.size)
		}
	}
}

// TestValueTableGolden holds every table type's encoding, round trip and bus
// size on fixed samples. The float64, graph.ID, uint64, uint8 and vector rows
// were recorded from the class codecs the table replaced (sssp, cc, sim,
// subiso/tricount, keyword/cf) and the sizes from the classes' declarations,
// the queue's from the simulation adapter's; int64 and bool had no class
// codec.
func TestValueTableGolden(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type f = sample[float64]
	holdGolden(t, f{0, "0000000000000000", 8}, f{math.MaxFloat64, "ffffffffffffef7f", 8}, f{-math.MaxFloat64, "ffffffffffffefff", 8},
		f{nan, "010000000000f87f", 8}, f{inf, "000000000000f07f", 8}, f{-inf, "000000000000f0ff", 8}, f{math.SmallestNonzeroFloat64, "0100000000000000", 8})
	type id = sample[graph.ID]
	holdGolden(t, id{0, "00", 8}, id{127, "7f", 8}, id{128, "8001", 8}, id{math.MaxInt64, "ffffffffffffffff7f", 8}, id{-1, "ffffffffffffffffff01", 8})
	holdGolden(t, sample[uint64]{0, "0000000000000000", 8}, sample[uint64]{0xdeadbeef, "efbeadde00000000", 8}, sample[uint64]{math.MaxUint64, "ffffffffffffffff", 8})
	holdGolden(t, sample[uint8]{0, "00", 1}, sample[uint8]{1, "01", 1}, sample[uint8]{math.MaxUint8, "ff", 1})
	holdGolden(t, sample[int64]{0, "0000000000000000", 8}, sample[int64]{math.MaxInt64, "ffffffffffffff7f", 8}, sample[int64]{math.MinInt64, "0000000000000080", 8})
	holdGolden(t, sample[bool]{false, "00", 1}, sample[bool]{true, "01", 1})
	wide := "04ffffffffffffef7f010000000000f87f000000000000f07f000000000000f0ff"
	type vec = sample[[]float64]
	holdGolden(t, vec{nil, "00", 0}, vec{[]float64{}, "00", 0}, vec{[]float64{0}, "010000000000000000", 8}, vec{[]float64{math.MaxFloat64, nan, inf, -inf}, wide, 32})
	type queue = sample[Queue]
	holdGolden(t, queue{nil, "00", 0}, queue{Queue{}, "00", 0}, queue{Queue{0}, "010000000000000000", 8}, queue{Queue{math.MaxFloat64, nan, inf, -inf}, wide, 32})
}

// sameBits compares two values of a table type by their encodings, so NaN
// equals itself and nil and empty vectors are told apart by decoding alone.
func sameBits[V any](a, b V) bool {
	c := kindFor[V]().codec
	return string(c.AppendVal(nil, a)) == string(c.AppendVal(nil, b))
}

// TestVectorCodecNilSentinel pins the nil/empty distinction the vector
// aggregates rely on: length 0 decodes to nil, not an empty slice, with an
// arena or without.
func TestVectorCodecNilSentinel(t *testing.T) {
	k := kindFor[[]float64]()
	for _, c := range []Codec[[]float64]{k.codec, k.arena(16)} {
		if v, _, err := c.DecodeVal(c.AppendVal(nil, []float64{})); err != nil || v != nil {
			t.Fatalf("empty vector decoded to %#v (%v), want nil", v, err)
		}
	}
}

// FuzzValueCodecs feeds arbitrary bytes to every table codec's DecodeVal.
// Decoders must never panic; whatever they do decode must re-encode and
// decode back to the same value (no lossy or ambiguous encodings on the
// wire).
func FuzzValueCodecs(f *testing.F) {
	for _, seed := range [][]byte{{}, {0}, {2}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 2, 3}} {
		f.Add(seed)
	}
	f.Add(kindFor[[]float64]().codec.AppendVal(nil, []float64{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, one := range []func(*testing.T, []byte){fuzzOne[float64], fuzzOne[int64], fuzzOne[uint64], fuzzOne[uint8], fuzzOne[bool], fuzzOne[graph.ID], fuzzOne[[]float64], fuzzOne[Queue]} {
			one(t, data)
		}
	})
}

func fuzzOne[V any](t *testing.T, data []byte) {
	k := kindFor[V]()
	codecs := []Codec[V]{k.codec}
	if k.arena != nil {
		codecs = append(codecs, k.arena(len(data)))
	}
	for _, c := range codecs {
		if v, used, err := c.DecodeVal(data); err == nil {
			buf := c.AppendVal(nil, v)
			v2, used2, err := c.DecodeVal(buf)
			if used < 0 || used > len(data) || err != nil || used2 != len(buf) || !sameBits(v, v2) {
				t.Fatalf("%T: %x decodes from %d bytes to %v, which re-encodes to %x, decoding to %v (%v)", v, data, used, v, buf, v2, err)
			}
		}
	}
}

// offTable is a program whose update parameters are a struct, which the
// value table does not hold.
type offTable struct{}

type pair struct{ a, b int }

func (offTable) Name() string { return "off-table" }
func (offTable) Spec() VarSpec[pair] {
	return VarSpec[pair]{Agg: func(a, b pair) pair { return b }}
}
func (offTable) PEval(cdQuery, *Context[pair]) error                { panic("ran") }
func (offTable) IncEval(cdQuery, *Context[pair]) error              { panic("ran") }
func (offTable) Assemble(cdQuery, []*Context[pair]) (string, error) { panic("ran") }
func (offTable) EncodeQuery(cdQuery) ([]byte, error)                { return nil, nil }
func (offTable) DecodeQuery([]byte) (cdQuery, error)                { return cdQuery{}, nil }

// TestValueOutsideTableIsRefused: a V the table does not hold is refused
// before anything runs — at registration, at RunOnLayout, when a session
// opens, and by a wire worker — with an error that names the table.
func TestValueOutsideTableIsRefused(t *testing.T) {
	refused := func(where string, got any) {
		t.Helper()
		if msg := fmt.Sprint(got); !strings.Contains(msg, "type engine.pair are not in the value table (float64, int64, uint64, uint8, bool, graph.ID, []float64, engine.Queue)") {
			t.Errorf("%s: %q does not refuse the type by the table", where, msg)
		}
	}
	func() {
		defer func() { refused("MakeEntry", recover()) }()
		MakeEntry(EntrySpec[cdQuery, pair, string]{Prog: offTable{}, Parse: func(string) (cdQuery, error) { return cdQuery{}, nil }, Canonical: func(cdQuery) string { return "" }})
	}()
	layout := runsOfThree(t)
	_, _, err := RunOnLayout(context.Background(), layout, offTable{}, cdQuery{}, Options{})
	refused("RunOnLayout", err)
	_, _, _, err = NewSession(context.Background(), ring(9), offTable{}, cdQuery{}, Options{Workers: 3})
	refused("NewSession", err)
	refused("WireServe", WireServe(offTable{})(context.Background(), nil, nil, layout.Fragments[0]))
}

// TestFoldRefusesVectorOfOtherWidth: a worker's report whose vector is
// narrower than the value it folds into fails the superstep with an error
// naming the worker and the node, instead of panicking in a pointwise Agg.
// The empty "unreached" vector still folds into any width, and queues, which
// vary in length by design, are not checked.
func TestFoldRefusesVectorOfOtherWidth(t *testing.T) {
	layout := matching(t, 4)
	pointwiseMin := func(a, b []float64) []float64 {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		out := make([]float64, len(a))
		for i := range a {
			out[i] = math.Min(a[i], b[i])
		}
		return out
	}
	fold := newFoldState(declared(VarSpec[[]float64]{Agg: pointwiseMin}), layout)
	report := func(v []float64) error {
		return fold.fold([]*workerReply[[]float64]{{changes: []update[[]float64]{{at: 0, val: v}}}, nil})
	}
	if err := report([]float64{3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := report(nil); err != nil {
		t.Fatalf("the unreached vector: %v", err)
	}
	id := layout.Fragments[0].G.IDAt(layout.Fragments[0].BorderIndices()[0])
	err := report([]float64{0})
	if err == nil {
		t.Fatal("a 1-wide vector folded into a 3-wide one")
	}
	for _, want := range []string{"worker 0", fmt.Sprintf("node %d", id), "width 1", "width 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %q", err, want)
		}
	}

	queue := newFoldState(declared(VarSpec[Queue]{Agg: func(a, b Queue) Queue { return append(a, b...) }}), layout)
	for _, q := range []Queue{{1, 2, 3}, {4}} {
		if err := queue.fold([]*workerReply[Queue]{{changes: []update[Queue]{{at: 0, val: q}}}, nil}); err != nil {
			t.Fatalf("queue of length %d: %v", len(q), err)
		}
	}
}
