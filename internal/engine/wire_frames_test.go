package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"grape/internal/gen"
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
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddEdge(graph.ID(i), graph.ID(n+i), 1)
	}
	layout, err := BuildLayout(b.Graph(), Options{Workers: 2, Strategy: partition.Range{}})
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
		buf, size = encodeCmd(codec, buf, cmd)
		tr.Send(mpi.Envelope{From: mpi.Coordinator, To: 0, Step: 2, Frame: buf, Size: size})
		env := <-up
		rep, err := decodeReply(codec, decoded, env.Frame, len(f.BorderIndices()))
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
	tr.Send(mpi.Envelope{From: mpi.Coordinator, To: 0, Frame: []byte{byte(cmdStop), 0}})
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBatchCountsBeforeAllocating: a batch claiming more updates than
// its bytes could hold (two each, at least) is refused before anything is
// sized from the claim; and a reply's active flag is 0 or 1, as an edge
// update's delete flag is.
func TestDecodeBatchCountsBeforeAllocating(t *testing.T) {
	claim := binary.AppendUvarint(nil, 1<<40)
	claim = append(claim, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeBatch[float64](f64Codec{}, nil, claim, math.MaxInt32, false)
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > 1<<16 {
		t.Fatalf("2^40 updates claimed in %d bytes: err %v, %d bytes allocated", len(claim), err, after.TotalAlloc-before.TotalAlloc)
	}
	if _, _, err := decodeBatch[float64](f64Codec{}, nil, []byte{33, 1}, math.MaxInt32, false); err == nil {
		t.Fatal("33 updates accepted in one byte")
	}

	reply, _ := encodeReply[float64](f64Codec{}, nil, workerReply[float64]{work: 3, active: true})
	flag := bytes.IndexByte(reply, 1) // count 0, work 3 as a varint (6), then the flag
	if _, err := decodeReply[float64](f64Codec{}, nil, reply, 0); err != nil || flag != 2 {
		t.Fatalf("intact reply: flag at %d, %v", flag, err)
	}
	reply[flag] = 2
	if _, err := decodeReply[float64](f64Codec{}, nil, reply, 0); err == nil {
		t.Fatal("a reply whose active flag is 2 was accepted")
	}
}

// TestDefaultPartialKeepsSetAndLength: the default partial answer is one
// batch, every set variable by dense index, ascending. The coordinator's decode holds the same (id, value) set the
// worker did and re-encodes to the same bytes; the frame around it is status
// · length · body, and a failed one carries the error instead.
func TestDefaultPartialKeepsSetAndLength(t *testing.T) {
	layout, err := BuildLayout(ring(64), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := wireStepper{}
	codec := prog.WireCodec()
	frag := layout.Fragments[1]
	ctx := newContext(frag, prog.Spec())
	var dense []update[int64]
	for i := ctx.Frag.G.NumVertices() - 1; i >= 0; i -= 3 {
		ctx.SetAt(int32(i), int64(1000+i))
		dense = append(dense, update[int64]{at: int32(i), val: int64(1000 + i)})
	}
	slices.Reverse(dense)

	buf, err := encodePartial(prog, codec, make([]byte, partialHead), stepQuery{}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := appendBatch(codec, nil, dense)
	if !bytes.Equal(buf[partialHead:], want) {
		t.Fatalf("partial body of %d bytes differs from the reference layout's %d", len(buf)-partialHead, len(want))
	}

	refFrame := append(binary.AppendUvarint([]byte{1}, uint64(len(want))), want...)
	frame := encodePartialFrame(buf, nil)
	body, err := decodePartialFrame(frame)
	if !bytes.Equal(frame, refFrame) || err != nil || !bytes.Equal(body, want) {
		t.Fatalf("partial frame differs from the reference framing (%v)", err)
	}
	coord := newContext(frag, prog.Spec())
	if err := decodePartial(prog, codec, stepQuery{}, coord, body); err != nil {
		t.Fatal(err)
	}
	vars := func(c *Context[int64]) map[graph.ID]int64 {
		m := map[graph.ID]int64{}
		c.Vars(func(id graph.ID, v int64) { m[id] = v })
		return m
	}
	if got, ref := vars(coord), vars(ctx); !maps.Equal(got, ref) {
		t.Fatalf("the coordinator holds %v, the worker %v", got, ref)
	}
	if again, _ := encodePartial(prog, codec, nil, stepQuery{}, coord); !bytes.Equal(again, want) {
		t.Fatal("the decoded partial re-encodes to other bytes")
	}
	failed := encodePartialFrame(buf[:partialHead], errors.New("no state"))
	if _, err := decodePartialFrame(failed); !bytes.Equal(failed, append([]byte{0, 8}, "no state"...)) || err == nil || err.Error() != "no state" {
		t.Fatalf("failed partial frame %q decodes to %v", failed, err)
	}
}

// TestWireCommandDecodeBuildsNoIDIndex: a command names its updates by the
// receiver's dense index, so decoding one into a freshly decoded fragment —
// the state a wire worker is in after its setup frame — builds no ID index:
// 1,000 updates cost nothing beyond the batch the caller passes in.
func TestWireCommandDecodeBuildsNoIDIndex(t *testing.T) {
	// TotalAlloc counts every goroutine's allocations; with one P no goroutine
	// an earlier test left running allocates inside the measured window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1000
	f := matching(t, n).Fragments[0] // 2,000 vertices: the sources and a copy of each target
	fragFrame := partition.AppendFragment(nil, f)
	ups := make([]update[float64], n)
	for i := range ups {
		ups[i] = update[float64]{at: int32(n + i), val: float64(i)}
	}
	frame, _ := encodeCmd(f64Codec{}, nil, workerCmd[float64]{kind: cmdIncEval, updates: ups})
	into := make([]update[float64], 0, n)
	var most uint64
	for range 5 {
		fresh, _, err := partition.DecodeFragment(graph.Realigned(slices.Clone(fragFrame)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cmd, err := decodeCmd(f64Codec{}, into, frame, fresh.G.NumVertices())
		runtime.ReadMemStats(&after)
		if err != nil || !slices.Equal(cmd.updates, ups) {
			t.Fatalf("decoded %d updates (%v), want the %d sent", len(cmd.updates), err, n)
		}
		most = max(most, after.TotalAlloc-before.TotalAlloc)
	}
	// an ID index over 2,000 vertices is a map of tens of kilobytes
	if most > 1<<10 {
		t.Fatalf("decoding a %d-update command allocated %d bytes: an ID index was built", n, most)
	}
}

// TestEngineFramesRejectJunk: a frame decodes only if it is exactly what an
// encoder of this package writes — a known status, a command kind the wire
// carries, positions inside the addressed fragment and in the order their
// sender emits them, minimal varints, zero padding, and nothing after the
// last section.
func TestEngineFramesRejectJunk(t *testing.T) {
	layout := runsOfThree(t)
	f := layout.Fragments[1]
	codec := wireStepper{}.WireCodec()
	inc := func(at ...int32) []byte {
		ups := make([]update[int64], len(at))
		for i, p := range at {
			ups[i] = update[int64]{at: p, val: 1}
		}
		frame, _ := encodeCmd(codec, nil, workerCmd[int64]{kind: cmdIncEval, updates: ups})
		return frame
	}
	nv := f.G.NumVertices()
	cmds := map[string][]byte{
		"trailing byte":           append(inc(0), 0),
		"session command":         {byte(cmdLocalInc), 0},
		"session dirty list":      {byte(cmdLocalInc), 0, 1, 5},
		"adopt kind":              {byte(cmdAdopt), 0},
		"unknown kind":            {99, 0},
		"control with updates":    append([]byte{byte(cmdStop)}, inc(0)[1:]...),
		"index past the fragment": inc(int32(nv)),
		"non-minimal count":       {byte(cmdIncEval), 0x80, 0},
	}
	for name, frame := range cmds {
		if _, err := decodeCmd(codec, nil, frame, nv); err == nil {
			t.Errorf("command with a %s accepted", name)
		}
	}
	if _, err := decodeCmd(codec, nil, inc(int32(nv-1), 0), nv); err != nil {
		t.Errorf("an in-range command refused: %v", err)
	}

	reply, _ := encodeReply(codec, nil, workerReply[int64]{changes: []update[int64]{{at: 1, val: 2}}, work: 5})
	if _, err := decodeReply(codec, nil, reply, 2); err != nil {
		t.Fatalf("intact reply: %v", err)
	}
	if _, err := decodeReply(codec, nil, append(reply, 0), 2); err == nil {
		t.Error("reply with a trailing byte accepted")
	}
	if _, err := decodeReply(codec, nil, reply, 1); err == nil {
		t.Error("reply naming a position past its sender's border accepted")
	}

	for name, frame := range map[string][]byte{
		"status 7":      {7, 0},
		"trailing byte": {1, 1, 'x', 'y'},
		"short body":    {1, 3, 'x'},
	} {
		if _, err := decodePartialFrame(frame); err == nil {
			t.Errorf("partial frame with a %s accepted", name)
		}
	}
	ctx := newContext(f, wireStepper{}.Spec())
	for name, body := range map[string][]byte{
		"index past the fragment": appendBatch(codec, nil, []update[int64]{{at: int32(nv), val: 1}}),
		"descending indices":      appendBatch(codec, nil, []update[int64]{{at: 1, val: 1}, {at: 0, val: 1}}),
		"repeated index":          appendBatch(codec, nil, []update[int64]{{at: 1, val: 1}, {at: 1, val: 2}}),
		"trailing byte":           append(appendBatch(codec, nil, nil), 0),
	} {
		if err := decodePartial(wireStepper{}, codec, stepQuery{}, ctx, body); err == nil {
			t.Errorf("default partial with a %s accepted", name)
		}
	}

	adopt := encodeAdopt(codec, f, []replayStep[int64]{{step: 2, updates: []update[int64]{{at: int32(nv - 1), val: 3}}}}, 2)
	if ad, err := decodeAdopt(codec, adopt); err != nil || ad.frag.Index != f.Index || len(ad.steps) != 1 {
		t.Fatalf("intact adopt frame: %v", err)
	}
	past := encodeAdopt(codec, f, []replayStep[int64]{{step: 2, updates: []update[int64]{{at: int32(nv), val: 3}}}}, 2)
	padded := slices.Clone(adopt)
	padded[len(adopt)-len(partition.AppendFragment(nil, f))-1] = 1 // 14 header bytes, then 2 of padding
	for name, frame := range map[string][]byte{
		"trailing byte":           append(slices.Clone(adopt), 0),
		"index past the fragment": past,
		"non-zero padding":        padded,
	} {
		if _, err := decodeAdopt(codec, frame); err == nil {
			t.Errorf("adopt frame with a %s accepted", name)
		}
	}

	// A worker must refuse a junk setup frame before it serves anything: it
	// reads no frame after it. An intact one it serves, reading on until the
	// link fails.
	registerWireStepper()
	qblob, _ := wireStepper{}.EncodeQuery(stepQuery{limit: 1})
	setup := encodeSetup(nil, "cancel-stepper", qblob, 0, f)
	head := len(setup) - len(partition.AppendFragment(nil, f))
	if fields := 1 + len("cancel-stepper") + 1 + len(qblob) + 1; fields >= head {
		t.Fatalf("the setup frame's %d header bytes leave no padding before byte %d", fields, head)
	}
	unpadded := slices.Clone(setup)
	unpadded[head-1] = 1
	serve := func(frame []byte) (int, error) {
		link := &setupLink{frame: frame}
		err := ServeWorker(context.Background(), link)
		return link.recvs, err
	}
	if recvs, err := serve(setup); recvs != 2 || err == nil {
		t.Fatalf("intact setup frame: %d frames read, %v; want it served until the link failed", recvs, err)
	}
	for name, frame := range map[string][]byte{
		"trailing byte":    append(slices.Clone(setup), 0),
		"non-zero padding": unpadded,
	} {
		if recvs, err := serve(frame); recvs != 1 || err == nil {
			t.Errorf("setup frame with a %s served: %d frames read, %v", name, recvs, err)
		}
	}
}

// setupLink delivers one setup frame, then fails every Recv.
type setupLink struct {
	frame []byte
	recvs int
}

func (l *setupLink) Recv() (mpi.Envelope, error) {
	l.recvs++
	if l.recvs > 1 {
		return mpi.Envelope{}, errors.New("link closed")
	}
	return mpi.Envelope{From: mpi.Coordinator, Frame: l.frame}, nil
}
func (*setupLink) Send(mpi.Envelope) error { return nil }
func (*setupLink) Release([]byte)          {}

// FuzzEngineFrames throws random and mutated command, reply, adopt and
// partial frames at their decoders, addressed to a fragment of runsOfThree:
// the first input byte picks the frame kind and the fragment, the rest is the
// frame. A decoder must return an error or something that re-encodes to the
// very bytes it read and addresses only positions the fragment has, in the
// order their sender emits them; no input may panic. An adopt frame's fragment is
// held to this only up to where it starts: FuzzFragmentFrame covers the
// fragment frame itself.
func FuzzEngineFrames(f *testing.F) {
	layout := runsOfThree(f)
	n := len(layout.Fragments)
	prog := wireStepper{}
	codec := prog.WireCodec()
	const command, reply, adopt, partial = 0, 1, 2, 3
	seed := func(kind, frag int, frame []byte) { f.Add(append([]byte{byte(kind*n + frag)}, frame...)) }
	for w, fr := range layout.Fragments {
		last := int32(fr.G.NumVertices() - 1)
		ups := []update[int64]{{at: last, val: 5}, {at: 0, val: -1}}
		cmd, _ := encodeCmd(codec, nil, workerCmd[int64]{kind: cmdIncEval, updates: ups})
		seed(command, w, cmd)
		stop, _ := encodeCmd(codec, nil, workerCmd[int64]{kind: cmdStop})
		seed(command, w, stop)
		rep, _ := encodeReply(codec, nil, workerReply[int64]{changes: []update[int64]{{at: 0, val: 7}, {at: 1, val: 8}}, work: -3, active: true, err: errors.New("oops"), computeNS: 40, applyNS: 5})
		seed(reply, w, rep)
		seed(adopt, w, encodeAdopt(codec, fr, []replayStep[int64]{{step: 2, updates: ups}, {step: 4}}, 4))
		ctx := newContext(fr, prog.Spec())
		ctx.SetAt(last, 9)
		ctx.SetAt(0, 3)
		body, _ := encodePartial(prog, codec, make([]byte, partialHead), stepQuery{}, ctx)
		seed(partial, w, encodePartialFrame(body, nil))
		seed(partial, w, encodePartialFrame(make([]byte, partialHead), errors.New("no state")))
	}
	for _, c := range forgedReplies() {
		seed(reply, c.from, c.frame)
	}
	addressed := func(t *testing.T, ups []update[int64], n int, ascending bool) {
		for i, u := range ups {
			if u.at < 0 || int(u.at) >= n || ascending && i > 0 && u.at <= ups[i-1].at {
				t.Fatalf("accepted a batch naming position %d of %d: %v", u.at, n, ups)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, fr, frame := int(data[0])/n%4, layout.Fragments[int(data[0])%n], data[1:]
		var again []byte
		switch kind {
		case command:
			cmd, err := decodeCmd(codec, nil, frame, fr.G.NumVertices())
			if err != nil {
				return
			}
			addressed(t, cmd.updates, fr.G.NumVertices(), false)
			again, _ = encodeCmd(codec, nil, cmd)
		case reply:
			rep, err := decodeReply(codec, nil, frame, len(fr.BorderIndices()))
			if err != nil {
				return
			}
			addressed(t, rep.changes, len(fr.BorderIndices()), true)
			again, _ = encodeReply(codec, nil, rep)
		case adopt:
			if len(frame) == 0 || cmdKind(frame[0]) != cmdAdopt {
				return // serveWire hands decodeAdopt only frames of its kind
			}
			ad, err := decodeAdopt(codec, frame)
			if err != nil {
				return
			}
			for _, st := range ad.steps {
				addressed(t, st.updates, ad.frag.G.NumVertices(), false)
			}
			again = encodeAdopt(codec, ad.frag, ad.steps, ad.owe)
			head := len(again) - len(partition.AppendFragment(nil, ad.frag))
			if head > len(frame) || !bytes.Equal(again[:head], frame[:head]) {
				t.Fatalf("adopt frame %x re-encodes to %x before its fragment", frame, again[:head])
			}
			if _, used, err := partition.DecodeFragment(frame[head:]); err != nil || head+used != len(frame) {
				t.Fatalf("adopt frame %x: its fragment does not start at %d (%v)", frame, head, err)
			}
			return
		case partial:
			body, err := decodePartialFrame(frame)
			if err != nil {
				return
			}
			ctx := newContext(fr, prog.Spec())
			if decodePartial(prog, codec, stepQuery{}, ctx, body) != nil {
				return
			}
			if len(ctx.vals) != fr.G.NumVertices() {
				t.Fatalf("a partial answer grew a context of %d vertices to %d", fr.G.NumVertices(), len(ctx.vals))
			}
			buf, _ := encodePartial(prog, codec, make([]byte, partialHead), stepQuery{}, ctx)
			again = encodePartialFrame(buf, nil)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("frame kind %d to fragment %d: %x decodes and re-encodes to %x", kind, fr.Index, frame, again)
		}
	})
}

// TestSetupFrameGrowsOnce: encodeSetup sizes a buffer that lacks room to the
// frame's exact length before it writes, so a setup frame of fragment 0 of a
// keyword social graph (about 800 KB) costs one allocation with no slack.
func TestSetupFrameGrowsOnce(t *testing.T) {
	g := gen.PreferentialAttachment(10000, 5, 1)
	gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, 1)
	layout, err := BuildLayout(g, Options{Workers: 8, Strategy: partition.Hash{}, ExpandHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := layout.Fragments[0]
	var frame []byte
	allocs := testing.AllocsPerRun(1, func() { frame = encodeSetup(nil, "keyword", []byte("k=db,graph"), 0, f) })
	if allocs != 1 || cap(frame) != len(frame) {
		t.Fatalf("a %d KB setup frame: %v allocations, cap %d for len %d; want 1 and no slack", len(frame)>>10, allocs, cap(frame), len(frame))
	}
	if _, _, _, got, err := decodeSetup(frame); err != nil || graph.Diff(f.G, got.G) != nil {
		t.Fatalf("the frame does not decode to its fragment: %v", err)
	}
}
