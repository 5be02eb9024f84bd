package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/queries"
	"grape/internal/seq"
)

// fuzzInput reads one generated answer out of the fuzzer's bytes; reading
// past the end yields zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// count reads one byte: 0xFF is nil, anything else a length below 128 — long
// enough for a map that sorts its keys through the bitmap.
func (in *fuzzInput) count() (n int, isNil bool) {
	b := in.byte()
	return int(b % 128), b == 0xFF
}

// id reads a width byte k (mod 9) and k little-endian bytes, sign-extended,
// so that every digit count from 1 to 19 is a short input away.
func (in *fuzzInput) id() graph.ID {
	k := int(in.byte() % 9)
	var u uint64
	for i := 0; i < k; i++ {
		u |= uint64(in.byte()) << (8 * i)
	}
	if k == 0 {
		return 0
	}
	shift := uint(64 - 8*k)
	return graph.ID(int64(u<<shift) >> shift)
}

func (in *fuzzInput) float() float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(in.byte()) << (8 * i)
	}
	return math.Float64frombits(u)
}

func (in *fuzzInput) ids() []graph.ID {
	n, isNil := in.count()
	if isNil {
		return nil
	}
	ids := make([]graph.ID, n)
	for i := range ids {
		ids[i] = in.id()
	}
	return ids
}

func fuzzIDMap[V any](in *fuzzInput, val func() V) map[graph.ID]V {
	n, isNil := in.count()
	if isNil {
		return nil
	}
	m := make(map[graph.ID]V, n)
	for i := 0; i < n; i++ {
		m[in.id()] = val()
	}
	return m
}

// fuzzAnswer builds a value of one of the four shapes appendAnswer encodes
// itself: sssp, cc, sim, subiso.
func fuzzAnswer(shape uint8, data []byte) any {
	in := fuzzInput(data)
	switch shape % 4 {
	case 0:
		return fuzzIDMap(&in, in.float)
	case 1:
		return fuzzIDMap(&in, in.id)
	case 2:
		return queries.SimResult(fuzzIDMap(&in, in.ids))
	default:
		n, isNil := in.count()
		if isNil {
			return []seq.Match(nil)
		}
		rows := make([]seq.Match, n)
		for i := range rows {
			rows[i] = fuzzIDMap(&in, in.id)
		}
		return rows
	}
}

// fuzzSeed writes the bytes fuzzAnswer reads.
type fuzzSeed []byte

func (s fuzzSeed) count(n int) fuzzSeed { // n < 0: nil
	if n < 0 {
		return append(s, 0xFF)
	}
	return append(s, byte(n))
}

func (s fuzzSeed) id(x int64) fuzzSeed {
	return binary.LittleEndian.AppendUint64(append(s, 8), uint64(x))
}

func (s fuzzSeed) float(f float64) fuzzSeed {
	return binary.LittleEndian.AppendUint64(s, math.Float64bits(f))
}

// FuzzAnswerEncoding holds appendAnswer to json.Marshal: for every generated
// sssp, cc, sim or subiso answer, the same bytes or the same error.
func FuzzAnswerEncoding(f *testing.F) {
	keys := []int64{math.MinInt64, -1000000000000000000, -100, -99, -10, -9, -1, 0, 1, 9, 10, 99, 100, 101,
		1000000000000000000, math.MaxInt64}
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, math.Nextafter(1e-6, 0), 1e-6,
		1e-7, 1.5e-9, math.Nextafter(1e21, 0), 1e21, 1e22, -1e21, 123456789.125, -0.5, math.MaxFloat64}
	var floatMap, idMap fuzzSeed
	floatMap, idMap = floatMap.count(len(keys)), idMap.count(len(keys))
	for i, k := range keys {
		floatMap = floatMap.id(k).float(floats[i%len(floats)])
		idMap = idMap.id(k).id(keys[len(keys)-1-i])
	}
	// dense keys, sorted through the bitmap: across zero and two digit-count
	// boundaries, and at both ends of the int64 range; then as many keys too
	// sparse for it
	dense := [4]fuzzSeed{fuzzSeed{}.count(121), fuzzSeed{}.count(70), fuzzSeed{}.count(70), fuzzSeed{}.count(70)}
	for i := int64(0); i < 121; i++ {
		dense[0] = dense[0].id(i - 20).float(float64(i) / 7)
		if i < 70 {
			dense[1] = dense[1].id(math.MinInt64 + 2*i).id(i)
			dense[2] = dense[2].id(math.MaxInt64 - 3*i).id(-i)
			dense[3] = dense[3].id((i - 35) * i * i * 1e12).id(i * 1e16)
		}
	}
	sim := fuzzSeed{}.count(4).id(3).count(-1).id(-3).count(0).id(30).count(2).id(7).id(-7).id(math.MinInt64).count(1).id(0)
	rows := fuzzSeed{}.count(4).count(-1).count(0).count(2).id(1).id(10).id(2).id(-2).count(1).id(9).id(9)
	for _, seed := range []struct {
		shape uint8
		data  fuzzSeed
	}{
		{0, floatMap}, {1, idMap}, {2, sim}, {3, rows}, {0, dense[0]}, {1, dense[1]}, {1, dense[2]}, {1, dense[3]},
		{0, fuzzSeed{}.count(-1)}, {1, fuzzSeed{}.count(0)}, {2, fuzzSeed{}.count(-1)}, {3, fuzzSeed{}.count(0)}, {3, fuzzSeed{}.count(-1)},
		// NaN and ±Inf: json.Marshal's error, for the first in key order
		{0, fuzzSeed{}.count(2).id(10).float(math.Inf(1)).id(9).float(math.NaN())},
		{0, fuzzSeed{}.count(2).id(-5).float(math.Inf(-1)).id(5).float(math.Inf(1))},
	} {
		f.Add(seed.shape, []byte(seed.data))
	}
	sc := new(answerScratch)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		v := fuzzAnswer(shape, data)
		want, werr := json.Marshal(v)
		got, err := appendAnswer([]byte("prefix"), v, sc)
		if fmt.Sprint(err) != fmt.Sprint(werr) || reflect.TypeOf(err) != reflect.TypeOf(werr) {
			t.Fatalf("%T: error %v (%T), json.Marshal's %v (%T)", v, err, err, werr, werr)
		}
		if werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%T %v:\n got %s\nwant prefix%s", v, v, got, want)
		}
	})
}

// TestAnswerEncodingAllocs: encoding the 96x96 road sssp answer (9,216
// entries) costs a handful of objects, where json.Marshal allocates about
// three per entry, and the cached bytes are an exact-size copy.
func TestAnswerEncodingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch on purpose")
	}
	s := New(Config{Workers: 4, Strategy: "hash"})
	if err := s.AddGraph("road", gen.RoadGrid(96, 96, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(t.Context(), QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	allocs := testing.AllocsPerRun(20, func() {
		enc, err = s.cache.encoded(&cacheVal{result: resp.Result})
	})
	if err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("encoding differs from json.Marshal (err %v)", err)
	}
	if len(enc) != cap(enc) {
		t.Errorf("cached encoding has len %d, cap %d", len(enc), cap(enc))
	}
	marshal := testing.AllocsPerRun(2, func() { json.Marshal(resp.Result) })
	t.Logf("%.0f allocations per encoding, json.Marshal %.0f", allocs, marshal)
	if allocs > 4 {
		t.Errorf("%.0f allocations per encoding, want <= 4", allocs)
	}
}
