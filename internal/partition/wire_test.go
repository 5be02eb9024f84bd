package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// frameCases are the layouts the frame tests run over: Build and
// BuildExpanded, directed and undirected inputs, vertex labels, edge labels
// and properties all present somewhere.
func frameCases(t testing.TB) map[string]*Layout {
	social := gen.PreferentialAttachment(300, 4, 5)
	gen.AttachKeywords(social, []string{"db", "graph", "ml", "sys"}, 2, 0.6, 7)
	commerce := gen.SocialCommerce(gen.SocialCommerceConfig{People: 200, Products: 5, Follows: 4, AdoptP: 0.7, Seed: 2})
	ratings := gen.Ratings(gen.RatingsConfig{Users: 80, Items: 20, RatingsPerUser: 6, Factors: 3, Noise: 0.1, Seed: 4})
	if social.Directed() == ratings.Directed() {
		t.Fatal("want one directed and one undirected input")
	}
	cases := map[string]*Layout{}
	for name, g := range map[string]*graph.Graph{"social": social, "commerce": commerce, "ratings": ratings} {
		for _, n := range []int{1, 3, 8} {
			asg, err := Hash{}.Partition(g, n)
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("%s/build/n%d", name, n)] = Build(g, asg)
			cases[fmt.Sprintf("%s/expanded/n%d", name, n)] = BuildExpanded(g, asg, 2)
		}
	}
	return cases
}

// sameFragment checks that got is observably identical to want through
// everything a PIE program or the engine can ask of a fragment.
func sameFragment(t *testing.T, want, got *Fragment) {
	t.Helper()
	if got.Index != want.Index {
		t.Fatalf("fragment index %d, want %d", got.Index, want.Index)
	}
	for _, l := range []struct {
		name      string
		got, want any
	}{
		{"Inner", got.Inner, want.Inner},
		{"Outer", got.Outer, want.Outer},
		{"InnerBorder", got.InnerBorder, want.InnerBorder},
		{"Border", got.Border(), want.Border()},
		{"BorderIndices", got.BorderIndices(), want.BorderIndices()},
		{"InnerIndices", got.InnerIndices(), want.InnerIndices()},
	} {
		if reflect.ValueOf(l.got).Len()+reflect.ValueOf(l.want).Len() > 0 && !reflect.DeepEqual(l.got, l.want) {
			t.Fatalf("fragment %d: %s = %v, want %v", want.Index, l.name, l.got, l.want)
		}
	}
	wg, gg := want.G, got.G
	if err := gg.Validate(); err != nil {
		t.Fatalf("fragment %d: %v", want.Index, err)
	}
	// dense order, labels, props and sparse out-adjacency, exactly
	if err := graph.Diff(wg, gg); err != nil {
		t.Fatalf("fragment %d: %v", want.Index, err)
	}
	if gg.NumEdges() != wg.NumEdges() || gg.NumLabels() != wg.NumLabels() {
		t.Fatalf("fragment %d: %d edges / %d labels, want %d / %d", want.Index, gg.NumEdges(), gg.NumLabels(), wg.NumEdges(), wg.NumLabels())
	}
	for i := int32(0); i < int32(wg.NumVertices()); i++ {
		id := wg.IDAt(i)
		if !reflect.DeepEqual(gg.OutAt(i), wg.OutAt(i)) || !reflect.DeepEqual(gg.InAt(i), wg.InAt(i)) {
			t.Fatalf("fragment %d: packed adjacency of %d changed", want.Index, id)
		}
		if in, win := gg.In(id), wg.In(id); len(in)+len(win) > 0 && !reflect.DeepEqual(in, win) {
			t.Fatalf("fragment %d: in-edges of %d = %v, want %v", want.Index, id, in, win)
		}
		if gg.LabelAt(i) != wg.LabelAt(i) || gg.LabelIDAt(i) != wg.LabelIDAt(i) {
			t.Fatalf("fragment %d: label of %d changed", want.Index, id)
		}
		if len(gg.PropsAt(i))+len(wg.PropsAt(i)) > 0 && !reflect.DeepEqual(gg.PropsAt(i), wg.PropsAt(i)) {
			t.Fatalf("fragment %d: props of %d changed", want.Index, id)
		}
		if got.IsInner(id) != want.IsInner(id) || got.IsInnerAt(i) != want.IsInnerAt(i) {
			t.Fatalf("fragment %d: inner flag of %d changed", want.Index, id)
		}
		if got.Owner(id) != want.Owner(id) {
			t.Fatalf("fragment %d: owner of %d is %d, want %d", want.Index, id, got.Owner(id), want.Owner(id))
		}
	}
}

// TestFragmentFrameEquivalence: a decoded fragment is observably identical
// to its source, and so is one decoded from a misaligned frame (the copy
// path), which in addition shares no memory with its input.
func TestFragmentFrameEquivalence(t *testing.T) {
	for name, l := range frameCases(t) {
		for _, f := range l.Fragments {
			if want := f.Index; f.Owner(f.Inner[0]) != want || l.Asg.Owner(f.Inner[0]) != want {
				t.Fatalf("%s: fragment %d does not own its first inner vertex", name, f.Index)
			}
			buf := AppendFragment(nil, f)
			got, used, err := DecodeFragment(buf)
			if err != nil {
				t.Fatalf("%s fragment %d: %v", name, f.Index, err)
			}
			if used != len(buf) || used%8 != 0 || used != FrameLen(f) {
				t.Fatalf("%s fragment %d: consumed %d of %d bytes, FrameLen %d", name, f.Index, used, len(buf), FrameLen(f))
			}
			sameFragment(t, f, got)

			shifted := AppendFragment(make([]byte, 3, 3+len(buf)), f)
			if !bytes.Equal(shifted[3:], buf) {
				t.Fatalf("%s fragment %d: encoding depends on the prefix", name, f.Index)
			}
			frame := append([]byte(nil), shifted...)
			mis, used, err := DecodeFragment(shifted[3:])
			if err != nil || used != len(buf) {
				t.Fatalf("%s fragment %d misaligned: used %d, err %v", name, f.Index, used, err)
			}
			sameFragment(t, f, mis)
			mutateLikeASession(t, mis)
			if !bytes.Equal(shifted, frame) {
				t.Fatalf("%s fragment %d: the copy path wrote into its input", name, f.Index)
			}
		}
	}
}

// mutateLikeASession applies a graph update to a fragment in place, through
// the mutable API: replicate a new outer vertex with its label and
// properties, record it, add an edge to it, delete an edge.
func mutateLikeASession(t *testing.T, f *Fragment) {
	t.Helper()
	if f.n == 1 {
		return // a lone fragment owns every vertex: no update creates an outer copy
	}
	const fresh = graph.ID(1 << 40)
	src := f.Inner[0]
	f.G.AddVertex(fresh, "fresh")
	f.G.SetProps(fresh, []string{"p"})
	f.AddOuter(fresh, (f.Index+1)%f.n)
	f.G.AddLabeledEdge(src, fresh, 1.5, "new")
	if f.AddInnerBorder(src) && len(f.Border()) != len(f.Outer)+len(f.InnerBorder) {
		t.Fatal("border cache out of step")
	}
	if _, ok := f.G.RemoveEdge(src, fresh, "new"); !ok {
		t.Fatal("removing the inserted edge failed")
	}
	if f.IsInner(fresh) || f.Owner(fresh) != (f.Index+1)%f.n || !f.IsInner(src) {
		t.Fatal("ownership wrong after the update")
	}
}

// TestFragmentFrameSpliceWritesHeap: a decoded fragment aliases the frame it
// arrived in; a session-style update on it splices the graph into heap
// memory and reallocates the ownership table, and never writes through the
// frame. The same updates applied to the source fragment give an equal
// fragment.
func TestFragmentFrameSpliceWritesHeap(t *testing.T) {
	for name, l := range frameCases(t) {
		for _, f := range l.Fragments {
			buf := AppendFragment(nil, f)
			frame := append([]byte(nil), buf...)
			got, _, err := DecodeFragment(buf)
			if err != nil {
				t.Fatal(err)
			}
			if graph.CanAlias() && &got.owners[0] != &graph.ViewInt32s(buf[fragHeaderLen : fragHeaderLen+4])[0] {
				t.Fatalf("%s fragment %d: aligned frame was copied, not aliased", name, f.Index)
			}
			mutateLikeASession(t, got)
			if !bytes.Equal(buf, frame) {
				t.Fatalf("%s fragment %d: the update wrote through the frame", name, f.Index)
			}
			mutateLikeASession(t, f)
			sameFragment(t, f, got)
			re, _, err := DecodeFragment(AppendFragment(nil, got))
			if err != nil {
				t.Fatalf("%s fragment %d: re-encoding the updated fragment: %v", name, f.Index, err)
			}
			sameFragment(t, f, re)
		}
	}
}

// TestFragmentFrameConcurrentFirstUse: the sparse views of a decoded
// fragment graph are derived on first use, possibly by several worker
// goroutines at once. Run under -race.
func TestFragmentFrameConcurrentFirstUse(t *testing.T) {
	l := frameCases(t)["commerce/build/n3"]
	for _, f := range l.Fragments {
		got, _, err := DecodeFragment(AppendFragment(nil, f))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, id := range f.G.Vertices() {
					if out, want := got.G.Out(id), f.G.Out(id); len(out)+len(want) > 0 && !reflect.DeepEqual(out, want) {
						t.Errorf("fragment %d: out-edges of %d differ", f.Index, id)
						return
					}
					if in, want := got.G.In(id), f.G.In(id); len(in)+len(want) > 0 && !reflect.DeepEqual(in, want) {
						t.Errorf("fragment %d: in-edges of %d differ", f.Index, id)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestDecodeFragmentRejectsCorruptFrames(t *testing.T) {
	l := frameCases(t)["commerce/build/n3"]
	f := l.Fragments[1]
	good := AppendFragment(nil, f)
	for cut := 0; cut < len(good); cut += 1 + cut/64 {
		if _, _, err := DecodeFragment(good[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(good))
		}
	}
	nv, ni := len(f.owners), len(f.Inner)
	innerOff := graph.Align8(fragHeaderLen + 4*nv)
	borderOff := graph.Align8(innerOff + 4*ni)
	corrupt := func(name string, off int, v byte) {
		bad := append([]byte(nil), good...)
		bad[off] = v
		if _, _, err := DecodeFragment(bad); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
	corrupt("magic", 0, 'X')
	corrupt("index past the fragment count", 4, 3)
	corrupt("zero fragments", 8, 0)
	corrupt("|V| beyond the bytes", 14, 1)
	corrupt("|V| unlike the graph's", 12, good[12]+1)
	corrupt("more inner than vertices", 18, 1)
	corrupt("more border than vertices", 22, 1)
	corrupt("owner out of range", fragHeaderLen, 3)
	corrupt("inner vertex owned elsewhere", fragHeaderLen+4*int(f.innerIdx[0]), 0)
	corrupt("inner count unlike the lists", 16, good[16]-1)
	corrupt("inner index out of range", innerOff+2, 1)
	corrupt("inner list not ascending", innerOff, good[innerOff+4])
	corrupt("border index out of range", borderOff+2, 1)
	corrupt("border list not ascending", borderOff, good[borderOff+4])
}

// repeatedIDFrame is the frame of fragment 0 of the path 0→1→…→5 cut by
// parity: inner 0, 2, 4, outer copies 1, 3, 5, border 1…5. With repeat, the
// copy of 1 is renamed 0 in the graph's ID section: both lists still ascend
// and every count holds, so only merging Inner with Outer finds the repeat.
func repeatedIDFrame(tb testing.TB, repeat bool) []byte {
	g := graph.New()
	for v := graph.ID(0); v < 5; v++ {
		g.AddEdge(v, v+1, 1)
	}
	asg := NewAssignment(g, 2)
	for i := range g.Vertices() {
		asg.SetOwnerAt(int32(i), i%2)
	}
	fr := Build(g, asg).Fragments[0]
	frame := AppendFragment(nil, fr)
	at, ok := fr.Local(1)
	if !ok || !repeat {
		return frame
	}
	innerOff := graph.Align8(fragHeaderLen + 4*len(fr.owners))
	borderOff := graph.Align8(innerOff + 4*len(fr.Inner))
	graphOff := graph.Align8(borderOff + 4*len(fr.Border()))
	ids := graphOff + graph.Align8(32+int(binary.LittleEndian.Uint32(frame[graphOff+24:])))
	binary.LittleEndian.PutUint64(frame[ids+8*int(at):], 0)
	return frame
}

// FuzzFragmentFrame throws arbitrary bytes at the frame decoder: it must
// never panic or allocate out of proportion to its input, anything it accepts
// must be a valid fragment, and a valid frame must round-trip byte for byte.
func FuzzFragmentFrame(f *testing.F) {
	// Small seed graphs: the fuzzer minimises every interesting input byte by
	// byte, which on frames of realistic size eats the whole smoke budget.
	tiny := gen.SocialCommerce(gen.SocialCommerceConfig{People: 12, Products: 2, Follows: 2, AdoptP: 0.7, Seed: 2})
	gen.AttachKeywords(tiny, []string{"db", "graph"}, 1, 0.5, 7)
	asg, err := Hash{}.Partition(tiny, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range []*Layout{Build(tiny, asg), BuildExpanded(tiny, asg, 1)} {
		for _, fr := range l.Fragments {
			frame := AppendFragment(nil, fr)
			f.Add(frame)
			f.Add(frame[:len(frame)/2])
			flipped := append([]byte(nil), frame...)
			flipped[len(flipped)/3] ^= 0x10
			f.Add(flipped)
		}
	}
	if _, _, err := DecodeFragment(repeatedIDFrame(f, false)); err != nil {
		f.Fatalf("the frame a repeated ID is patched into: %v", err)
	}
	dup := repeatedIDFrame(f, true)
	if _, _, err := DecodeFragment(dup); err == nil {
		f.Fatal("a frame whose inner and outer lists share an ID decoded")
	}
	f.Add(dup)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x40})
	f.Add([]byte("GRFG\x00\x00\x00\x00\x01\x00\x00\x00\xff\xff\xff\x7e\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, used, err := DecodeFragment(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if err := fr.G.Validate(); err != nil {
			t.Fatalf("accepted frame decodes to an invalid graph: %v", err)
		}
		if len(fr.Border()) != len(fr.Outer)+len(fr.InnerBorder) || len(fr.InnerIndices()) != len(fr.Inner) {
			t.Fatal("accepted frame decodes to inconsistent vertex lists")
		}
		for _, id := range fr.G.Vertices() {
			_, _, _ = fr.G.Out(id), fr.G.In(id), fr.Owner(id)
		}
		if again := AppendFragment(nil, fr); !bytes.Equal(again, data[:used]) {
			// padding bytes are not validated, so compare through a decode
			re, _, err := DecodeFragment(again)
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			sameFragment(t, fr, re)
		}
	})
}
