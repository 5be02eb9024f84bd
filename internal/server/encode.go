package server

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"grape/internal/graph"
	"grape/internal/queries"
	"grape/internal/seq"
)

// Answer encoding without reflection. appendAnswer writes exactly the bytes
// json.Marshal produces for the four map-shaped results — sssp's
// map[graph.ID]float64, cc's map[graph.ID]graph.ID, sim's queries.SimResult
// and subiso's []seq.Match — and hands every other result (keyword, cf,
// tricount, user programs) to json.Marshal itself. The contract is byte
// identity, error strings included; FuzzAnswerEncoding holds it.

// answerScratch is the memory one encoding reuses: the output buffer, and the
// two key arrays and the bitmap a map's key ordering works in.
// resultCache.encoded copies the output out at its exact size, so nothing
// here outlives an encoding.
type answerScratch struct {
	buf         []byte
	keys, order []graph.ID
	bitmap      []uint64
}

var answerScratchPool = sync.Pool{New: func() any { return new(answerScratch) }}

// appendAnswer appends json.Marshal(v)'s bytes to dst, or returns the error
// json.Marshal would: a NaN or ±Inf value is a *json.UnsupportedValueError
// with the same message, reported for the first such value in key order. On
// error the appended bytes are garbage.
func appendAnswer(dst []byte, v any, sc *answerScratch) ([]byte, error) {
	switch r := v.(type) {
	case map[graph.ID]float64:
		return appendIDMap(dst, r, sc, appendFloat)
	case map[graph.ID]graph.ID:
		return appendIDMap(dst, r, sc, appendID)
	case queries.SimResult:
		return appendIDMap(dst, r, sc, appendIDs)
	case []seq.Match:
		if r == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, m := range r {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, _ = appendIDMap(dst, m, sc, appendID) // IDs cannot fail
		}
		return append(dst, ']'), nil
	}
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// appendIDMap writes m as encoding/json does: null when nil, otherwise an
// object whose keys are the decimal IDs in jsonKeys order.
func appendIDMap[V any](dst []byte, m map[graph.ID]V, sc *answerScratch, appendVal func([]byte, V) ([]byte, error)) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '{')
	for i, k := range jsonKeys(m, sc) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, int64(k), 10)
		dst = append(dst, '"', ':')
		var err error
		if dst, err = appendVal(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendID(dst []byte, id graph.ID) ([]byte, error) {
	return strconv.AppendInt(dst, int64(id), 10), nil
}

func appendIDs(dst []byte, ids []graph.ID) ([]byte, error) {
	if ids == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return append(dst, ']'), nil
}

// appendFloat is encoding/json's float64 rule: the shortest representation
// that round-trips, in 'e' format below 1e-6 and from 1e21 up with a
// one-digit negative exponent unpadded, and no encoding at all for NaN or ±Inf.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// jsonKeys returns m's keys in the order encoding/json writes them: bytewise
// by their decimal strings. It sorts the keys as numbers and never builds a
// string. '-' sorts before every digit, so the negative keys come first, and
// within each sign the digits of the magnitude decide. The result lives in
// sc until its next use.
func jsonKeys[V any](m map[graph.ID]V, sc *answerScratch) []graph.ID {
	keys := sc.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sc.keys = keys
	sortIDs(keys, sc)
	neg, _ := slices.BinarySearch(keys, 0)
	slices.Reverse(keys[:neg]) // ascending magnitude
	sc.order = mergeDigitRuns(sc.order[:0], keys[:neg])
	sc.order = mergeDigitRuns(sc.order, keys[neg:])
	return sc.order
}

// sortIDs sorts keys, which are distinct, in place. When they span a range
// under 8 times their count — a result keyed by vertex IDs usually does — a
// bitmap of the range sorts them in linear time.
func sortIDs(keys []graph.ID, sc *answerScratch) {
	if len(keys) < 64 {
		slices.Sort(keys)
		return
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	span := uint64(hi) - uint64(lo) // exact even when hi - lo overflows int64
	if span >= 8*uint64(len(keys)) {
		slices.Sort(keys)
		return
	}
	words := span/64 + 1
	if uint64(cap(sc.bitmap)) < words {
		sc.bitmap = make([]uint64, words)
	}
	sc.bitmap = sc.bitmap[:words]
	clear(sc.bitmap)
	for _, k := range keys {
		off := uint64(k) - uint64(lo)
		sc.bitmap[off/64] |= 1 << (off % 64)
	}
	i := 0
	for w, word := range sc.bitmap {
		for ; word != 0; word &= word - 1 {
			keys[i] = lo + graph.ID(w*64+bits.TrailingZeros64(word))
			i++
		}
	}
}

// pow10[i] is 10^i; every magnitude of an int64, 2^63 included, is below
// pow10[19].
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// magnitude is |id| as a uint64, exact for math.MinInt64 too.
func magnitude(id graph.ID) uint64 {
	if id < 0 {
		return uint64(-id)
	}
	return uint64(id)
}

// mergeDigitRuns appends keys — all of one sign, in ascending magnitude — in
// the bytewise order of their magnitudes' decimal strings. Keys with equal
// digit counts stand in contiguous runs already in that order; the runs are
// merged by the magnitude left-aligned to 19 digits, the shorter key first on
// a tie (it is then a prefix of the other, padded with zeros).
func mergeDigitRuns(dst, keys []graph.ID) []graph.ID {
	type run struct {
		next, end int
		shift     uint64 // pow10[19 - digits]
		head      uint64 // keys[next] left-aligned
	}
	var runs [19]run // one per digit count, ascending
	n := 0
	for i, digits := 0, 1; i < len(keys); digits++ {
		j := i
		for j < len(keys) && magnitude(keys[j]) < pow10[digits] {
			j++
		}
		if j > i {
			runs[n] = run{next: i, end: j, shift: pow10[19-digits]}
			runs[n].head = magnitude(keys[i]) * runs[n].shift
			n++
		}
		i = j
	}
	if n <= 1 {
		return append(dst, keys...)
	}
	for {
		best := -1
		for r := 0; r < n; r++ {
			if runs[r].next < runs[r].end && (best < 0 || runs[r].head < runs[best].head) {
				best = r
			}
		}
		if best < 0 {
			return dst
		}
		b := &runs[best]
		dst = append(dst, keys[b.next])
		if b.next++; b.next < b.end {
			b.head = magnitude(keys[b.next]) * b.shift
		}
	}
}
