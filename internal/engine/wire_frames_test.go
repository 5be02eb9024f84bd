package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// vecProg is a vector-valued wire program for exercising the frame path:
// PEval gives every local vertex a vector, IncEval re-ships every border
// vertex the last batch changed. Values are replaced, not merged, so a batch
// of fresh values always changes every vertex it names.
type vecProg struct{}

type vecQuery struct{}

func (vecProg) Name() string { return "vecprog" }

func (vecProg) Spec() VarSpec[[]float64] {
	return VarSpec[[]float64]{
		Agg:  func(old, new []float64) []float64 { return new },
		Eq:   func(a, b []float64) bool { return slices.Equal(a, b) },
		Size: func(v []float64) int { return 8 * len(v) },
	}
}

func (vecProg) PEval(q vecQuery, ctx *Context[[]float64]) error {
	for i := range ctx.Frag.G.Vertices() {
		ctx.SetAt(int32(i), []float64{float64(i), 1, 2})
	}
	return nil
}

func (vecProg) IncEval(q vecQuery, ctx *Context[[]float64]) error {
	for _, id := range ctx.Updated() {
		ctx.touch(id)
	}
	return nil
}

func (vecProg) Assemble(q vecQuery, ctxs []*Context[[]float64]) (int, error) { return len(ctxs), nil }

func (vecProg) WireCodec() Codec[[]float64]               { return arenaVecCodec{} }
func (vecProg) EncodeQuery(q vecQuery) ([]byte, error)    { return nil, nil }
func (vecProg) DecodeQuery(data []byte) (vecQuery, error) { return vecQuery{}, nil }

// arenaVecCodec is the shape of the queries package's vector codec (which
// this package cannot import): uvarint length, raw floats, and an arena per
// batch.
type arenaVecCodec struct{ arena *[]float64 }

func (arenaVecCodec) Arena(size int) Codec[[]float64] {
	arena := make([]float64, 0, size/8)
	return arenaVecCodec{&arena}
}

func (arenaVecCodec) AppendVal(buf []byte, v []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func (c arenaVecCodec) DecodeVal(data []byte) ([]float64, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > uint64(len(data)-used)/8 {
		return nil, 0, errors.New("bad vector")
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

// matching is n disjoint edges i → n+i cut down the middle (Range): fragment 0
// owns the sources and holds an outer copy, a border vertex, of every target.
func matching(t *testing.T, n int) *partition.Layout {
	t.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddEdge(graph.ID(i), graph.ID(n+i), 1)
	}
	layout, err := BuildLayout(g, Options{Workers: 2, Strategy: partition.Range{}})
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// TestWireSuperstepAllocsPerFrame: in steady state one IncEval superstep over
// a channel link — command encode, worker decode, apply, IncEval, flush,
// reply encode, coordinator decode — allocates a fixed handful of objects per
// frame (the link's copy, the batch's arena), however many updates ride in it.
func TestWireSuperstepAllocsPerFrame(t *testing.T) {
	const n = 2048
	layout := matching(t, n)
	prog, codec := vecProg{}, arenaVecCodec{}
	up := make(chan mpi.Envelope, 1)
	tr := chanTransport{links: []chanLink{{in: make(chan mpi.Envelope, 1), out: up}}}
	served := make(chan error, 1)
	go func() {
		served <- serveWire(context.Background(), prog, tr.links[0], vecQuery{}, &wireScratch[[]float64]{ctx: newContext(layout.Fragments[0], prog.Spec())})
	}()

	var buf []byte
	var decoded []update[[]float64]
	f := layout.Fragments[0]
	superstep := func(cmd workerCmd[[]float64], want int) {
		var size int
		buf, size = encodeCmd(codec, buf, cmd, f.G.Vertices())
		tr.Send(mpi.Envelope{From: mpi.Coordinator, To: 0, Step: 2, Frame: buf, Size: size})
		env := <-up
		rep, err := decodeReply(codec, decoded, env.Frame, f)
		if err != nil || rep.err != nil || len(rep.changes) != want {
			t.Fatalf("reply: %d changes, want %d (decode %v, worker %v)", len(rep.changes), want, err, rep.err)
		}
		decoded = rep.changes
	}
	superstep(workerCmd[[]float64]{kind: cmdPEval}, n)

	ups := make([]update[[]float64], n)
	for i := range ups {
		at, _ := f.G.Index(graph.ID(n + i))
		ups[i] = update[[]float64]{at: at, val: []float64{0, 1, 2}}
	}
	measure := func(k int) float64 {
		batch := workerCmd[[]float64]{kind: cmdIncEval, updates: ups[:k]}
		round := func() {
			for _, u := range batch.updates {
				u.val[0]++ // a fresh value: the batch changes every vertex it names
			}
			superstep(batch, k)
		}
		round() // grow every reused buffer to this batch's size
		return testing.AllocsPerRun(20, round)
	}
	large, small := measure(n), measure(16)
	t.Logf("objects per superstep (two frames): %.0f at %d updates, %.0f at 16", large, n, small)
	if large != small || large > 2*8 {
		t.Fatalf("a superstep of %d updates allocates %.0f objects, one of 16 allocates %.0f: want the same, at most 8 per frame", n, large, small)
	}
	tr.Send(mpi.Envelope{From: mpi.Coordinator, To: 0, Frame: []byte{byte(cmdStop), 0, 0}})
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestDecodeUpdatesCountsBeforeAllocating: a batch claiming more updates than
// its bytes could hold (two each, at least) is refused before anything is
// sized from the claim; and a reply's active flag is 0 or 1, as an edge
// update's delete flag is.
func TestDecodeUpdatesCountsBeforeAllocating(t *testing.T) {
	claim := binary.AppendUvarint(nil, 1<<40)
	claim = append(claim, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeUpdates[float64](f64Codec{}, nil, claim)
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > 1<<16 {
		t.Fatalf("2^40 updates claimed in %d bytes: err %v, %d bytes allocated", len(claim), err, after.TotalAlloc-before.TotalAlloc)
	}
	if _, _, err := DecodeUpdates[float64](f64Codec{}, nil, []byte{33, 1}); err == nil {
		t.Fatal("33 updates accepted in one byte")
	}

	f := matching(t, 1).Fragments[0]
	reply, _ := encodeReply[float64](f64Codec{}, nil, workerReply[float64]{work: 3, active: true}, nil)
	flag := bytes.IndexByte(reply, 1) // count 0, work 3 as a varint (6), then the flag
	if _, err := decodeReply[float64](f64Codec{}, nil, reply, f); err != nil || flag != 2 {
		t.Fatalf("intact reply: flag at %d, %v", flag, err)
	}
	reply[flag] = 2
	if _, err := decodeReply[float64](f64Codec{}, nil, reply, f); err == nil {
		t.Fatal("a reply whose active flag is 2 was accepted")
	}
}

// TestDefaultPartialKeepsSetAndLength: the default partial answer is written
// in dense order, overflow nodes after, where the parent collected, sorted by
// ID and then encoded. Same (id, value) set, same encoded length — so the
// metered bytes did not move — and the frame around it is the parent's byte
// for byte.
func TestDefaultPartialKeepsSetAndLength(t *testing.T) {
	layout, err := BuildLayout(ring(64), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := wireStepper{}
	codec := prog.WireCodec()
	ctx := newContext(layout.Fragments[1], prog.Spec())
	for i := ctx.Frag.G.NumVertices() - 1; i >= 0; i -= 3 {
		ctx.SetAt(int32(i), int64(1000+i))
	}
	ctx.Set(9999, 7) // not hosted here: the overflow map
	ctx.Set(5000, 8)

	var ref []VarUpdate[int64]
	ctx.Vars(func(id graph.ID, v int64) { ref = append(ref, VarUpdate[int64]{ID: id, Val: v}) })
	byID := func(a, b VarUpdate[int64]) int { return int(a.ID - b.ID) }
	slices.SortFunc(ref, byID)
	want := AppendUpdates(codec, nil, ref)

	buf, err := encodePartial(prog, codec, make([]byte, partialHead), stepQuery{}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, used, err := DecodeUpdates(codec, nil, buf[partialHead:])
	if err != nil || used != len(buf)-partialHead || used != len(want) {
		t.Fatalf("partial of %d bytes, reference %d (decoded %d, %v)", len(buf)-partialHead, len(want), used, err)
	}
	if slices.IsSortedFunc(got, byID) {
		t.Fatal("the fixture's dense order happens to be ID order: the test proves nothing")
	}
	slices.SortFunc(got, byID)
	if !slices.Equal(got, ref) {
		t.Fatalf("partial holds %v, want %v", got, ref)
	}

	refFrame := append(binary.AppendUvarint([]byte{1}, uint64(len(want))), buf[partialHead:]...)
	frame := encodePartialFrame(buf, nil)
	if body, err := decodePartialFrame(frame); !bytes.Equal(frame, refFrame) || err != nil || !bytes.Equal(body, refFrame[len(refFrame)-len(want):]) {
		t.Fatalf("partial frame differs from the reference framing (%v)", err)
	}
	failed := encodePartialFrame(buf[:partialHead], errors.New("no state"))
	if _, err := decodePartialFrame(failed); !bytes.Equal(failed, append([]byte{0, 8}, "no state"...)) || err == nil || err.Error() != "no state" {
		t.Fatalf("failed partial frame %q decodes to %v", failed, err)
	}
}
