package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"grape/internal/graph"
)

// The value table. A program declares what only it knows of its update
// parameters (VarSpec); the engine derives the rest from their Go type, once
// per run and never by reflection per value: the equality that drives change
// detection, the wire codec and the bus's size estimate. kinds is the table,
// one row per type; a program whose V is not in it is refused before it runs.

// Queue is the update parameter of consumable message queues (the
// vertex-centric simulation adapter): a queue counts as changed whenever it is
// non-empty, leaves its sender once shipped, is folded across workers without
// the coordinator's persistent state, and goes to the node's owner alone.
type Queue []float64

// A Codec is a value type's wire format. AppendVal and DecodeVal round-trip
// exactly, DecodeVal rejects malformed input with an error rather than panic
// (frames arrive from the network), and a decoded value never aliases data
// (frames are reused). Only the table implements it.
type Codec[V any] interface {
	AppendVal(buf []byte, v V) []byte      // appends v's encoding to buf
	DecodeVal(data []byte) (V, int, error) // the value at data's front, and its length
}

// valueKind is the table's row for one value type.
type valueKind[V any] struct {
	eq    func(a, b V) bool
	size  func(v V) int // the bus's estimate of a value's bytes
	codec Codec[V]
	arena func(size int) Codec[V] // vectors: a codec cutting size bytes' values from one allocation
	fits  func(old, v V) error    // nil, or why v cannot fold into old
	queue bool
}

var kinds = [...]any{
	&valueKind[float64]{eq: same[float64], size: width[float64](8), codec: f64Codec{}},
	&valueKind[int64]{eq: same[int64], size: width[int64](8), codec: wordCodec[int64]{}},
	&valueKind[uint64]{eq: same[uint64], size: width[uint64](8), codec: wordCodec[uint64]{}},
	&valueKind[uint8]{eq: same[uint8], size: width[uint8](1), codec: byteCodec{}},
	&valueKind[bool]{eq: same[bool], size: width[bool](1), codec: boolCodec{}},
	&valueKind[graph.ID]{eq: same[graph.ID], size: width[graph.ID](8), codec: idCodec{}},
	&valueKind[[]float64]{eq: slices.Equal[[]float64], size: vecSize[[]float64], codec: vecCodec[[]float64]{}, arena: vecArena[[]float64], fits: sameWidth},
	&valueKind[Queue]{eq: bothEmpty, size: vecSize[Queue], codec: vecCodec[Queue]{}, arena: vecArena[Queue], queue: true},
}

// ValueCodec returns the table's codec for V — nil for a type outside the
// table — for a program encoding values in its own partial answer. A vector
// codec cuts the vectors it decodes from one arena sized for arena encoded
// bytes (0: each its own allocation).
func ValueCodec[V any](arena int) Codec[V] {
	switch k, err := declare("ValueCodec", VarSpec[V]{}); {
	case err != nil:
		return nil
	case k.arena != nil && arena > 0:
		return k.arena(arena)
	default:
		return k.codec
	}
}

// vars is a program's declaration bound to its value type's row: what every
// context, fold and checkpoint of a run reads.
type vars[V any] struct {
	VarSpec[V]
	*valueKind[V]
}

// declare binds program name's spec to V's row of the table, or fails naming
// the table.
func declare[V any](name string, spec VarSpec[V]) (vars[V], error) {
	for _, k := range kinds {
		if k, ok := k.(*valueKind[V]); ok {
			return vars[V]{spec, k}, nil
		}
	}
	var v V
	return vars[V]{}, fmt.Errorf("engine: %s: update parameters of type %T are not in the value table (float64, int64, uint64, uint8, bool, graph.ID, []float64, engine.Queue)", name, v)
}

// shipSize is the bus's traffic estimate for a batch: an 8-byte node ID plus
// the value's bus size per update (a wire charges the encoded length).
func (k *valueKind[V]) shipSize(ups []update[V]) int {
	size := 0
	for _, u := range ups {
		size += 8 + k.size(u.val)
	}
	return size
}

func same[T comparable](a, b T) bool { return a == b }

func bothEmpty(a, b Queue) bool { return len(a) == 0 && len(b) == 0 }

// sameWidth refuses a vector whose width differs from the one it folds into:
// a program's pointwise Agg indexes one by the other. Empty is the
// "unreached" sentinel and fits any width. Queues vary in length by design
// and are not checked.
func sameWidth(old, v []float64) error {
	if len(old) != 0 && len(v) != 0 && len(old) != len(v) {
		return fmt.Errorf("vector of width %d cannot fold into one of width %d", len(v), len(old))
	}
	return nil
}

func width[T any](n int) func(T) int { return func(T) int { return n } }

func vecSize[S ~[]float64](v S) int { return 8 * len(v) }

type f64Codec struct{}

func (f64Codec) AppendVal(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func (f64Codec) DecodeVal(data []byte) (float64, int, error) {
	if len(data) < 8 {
		return 0, 0, fmt.Errorf("engine: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8, nil
}

// wordCodec writes 64-bit integers as 8 fixed bytes: Sim's candidate masks
// start at all ones, where a varint would cost 10.
type wordCodec[T int64 | uint64] struct{}

func (wordCodec[T]) AppendVal(buf []byte, v T) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

func (wordCodec[T]) DecodeVal(data []byte) (T, int, error) {
	if len(data) < 8 {
		return 0, 0, fmt.Errorf("engine: truncated 64-bit word")
	}
	return T(binary.LittleEndian.Uint64(data)), 8, nil
}

type byteCodec struct{}

func (byteCodec) AppendVal(buf []byte, v uint8) []byte { return append(buf, v) }

func (byteCodec) DecodeVal(data []byte) (uint8, int, error) {
	if len(data) < 1 {
		return 0, 0, fmt.Errorf("engine: truncated byte")
	}
	return data[0], 1, nil
}

type boolCodec struct{}

func (boolCodec) AppendVal(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func (boolCodec) DecodeVal(data []byte) (bool, int, error) {
	if len(data) < 1 || data[0] > 1 {
		return false, 0, fmt.Errorf("engine: truncated or bad bool")
	}
	return data[0] == 1, 1, nil
}

type idCodec struct{}

func (idCodec) AppendVal(buf []byte, v graph.ID) []byte {
	return binary.AppendUvarint(buf, uint64(v))
}

func (idCodec) DecodeVal(data []byte) (graph.ID, int, error) {
	n := 0
	v, err := graph.ReadUvarint(data, &n)
	return graph.ID(v), n, err
}

// vecCodec writes a vector as its uvarint length and raw IEEE-754 bytes.
// Length 0 decodes to nil, the "unreached/uninitialized" sentinel of the
// programs' aggregates. With an arena, decoded vectors are cut from it, each
// capped so that an append to one cannot reach the next; without, every
// vector is its own allocation.
type vecCodec[S ~[]float64] struct{ arena *[]float64 }

// vecArena: size encoded bytes hold at most size/8 floats.
func vecArena[S ~[]float64](size int) Codec[S] {
	arena := make([]float64, 0, size/8)
	return vecCodec[S]{&arena}
}

func (vecCodec[S]) AppendVal(buf []byte, v S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func (c vecCodec[S]) DecodeVal(data []byte) (S, int, error) {
	used := 0
	n, err := graph.ReadUvarint(data, &used)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)-used)/8 {
		return nil, 0, fmt.Errorf("engine: truncated vector of %d floats", n)
	}
	if n == 0 {
		return nil, used, nil
	}
	var out []float64
	if a := c.arena; a != nil && int(n) <= cap(*a)-len(*a) {
		*a = (*a)[:len(*a)+int(n)]
		out = (*a)[len(*a)-int(n) : len(*a) : len(*a)]
	} else {
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[used+8*i:]))
	}
	return out, used + int(n)*8, nil
}
