package transport_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/queries"
	"grape/internal/seq"
	"grape/internal/transport"
)

// classCase is one query class on a graph of its own. run executes it under
// the given options; golden audits the frames one run put on the wire against
// the reference encoders below (it is typed by the class's value type, which
// is why it is a closure).
type classCase struct {
	name   string
	run    func(opts engine.Options) (any, *metrics.Stats, error)
	layout func(workers int) (*partition.Layout, error)
	golden func(t *testing.T, layout *partition.Layout, rec *recordingTransport)
}

func newCase[Q, V, R any](name string, g *graph.Graph, prog engine.WireProgram[Q, V, R], q Q, hops int) classCase {
	return classCase{
		name: name,
		run: func(opts engine.Options) (any, *metrics.Stats, error) {
			opts.ExpandHops = hops
			return anyRun(engine.Run(context.Background(), g, prog, q, opts))
		},
		layout: func(workers int) (*partition.Layout, error) {
			return engine.BuildLayout(g, engine.Options{Workers: workers, ExpandHops: hops})
		},
		golden: func(t *testing.T, layout *partition.Layout, rec *recordingTransport) {
			goldenFrames(t, prog, q, layout, rec)
		},
	}
}

// sevenClasses is every registered wire program, each on a small graph that
// takes it through several supersteps where the class has any.
func sevenClasses() []classCase {
	simG := gen.Random(150, 450, 21)
	for i, v := range simG.SortedVertices() {
		simG.AddVertex(v, []string{"a", "b", "c"}[i%3])
	}
	simP := graph.New()
	simP.AddVertex(0, "a")
	simP.AddVertex(1, "b")
	simP.AddEdge(0, 1, 1)
	simP.AddEdge(1, 0, 1)
	subG := gen.Random(80, 240, 3)
	for i, v := range subG.SortedVertices() {
		subG.AddVertex(v, []string{"x", "y"}[i%2])
	}
	subP := graph.New()
	subP.AddVertex(0, "x")
	subP.AddVertex(1, "y")
	subP.AddEdge(0, 1, 1)
	subQ := queries.SubIsoQuery{Pattern: subP}
	kwG := gen.PreferentialAttachment(400, 3, 5)
	gen.AttachKeywords(kwG, []string{"db", "graph", "ml"}, 2, 0.15, 31)
	cfCfg := seq.DefaultCFConfig()
	cfCfg.Epochs = 4
	return []classCase{
		newCase("sssp", gen.RoadGrid(24, 24, 1), queries.SSSP{}, queries.SSSPQuery{Source: 0}, 0),
		newCase("cc", gen.PreferentialAttachment(800, 3, 2), queries.CC{}, queries.CCQuery{}, 0),
		newCase("sim", simG, queries.Sim{}, queries.SimQuery{Pattern: simP}, 0),
		newCase("subiso", subG, queries.SubIso{}, subQ, queries.SubIso{}.Radius(subQ)),
		newCase("keyword", kwG, queries.Keyword{}, queries.KeywordQuery{Keywords: []string{"db", "graph"}, Bound: 12, UseIndex: true}, 0),
		newCase("cf", gen.Ratings(gen.RatingsConfig{Users: 60, Items: 15, RatingsPerUser: 6, Factors: 4, Noise: 0.1, Seed: 5}), queries.CF{}, queries.CFQuery{Cfg: cfCfg}, 0),
		newCase("tricount", gen.Random(120, 480, 7), queries.TriCount{}, queries.TriCountQuery{}, 1),
	}
}

const poison = 0xA5

func scribble(frame []byte) {
	for i := range frame {
		frame[i] = poison
	}
}

// poisonTransport and poisonLink enforce the frame-ownership rule of
// mpi.Envelope from the other side: a frame is overwritten the moment the
// party that holds it has given it up — the sender's when Send returns, the
// receiver's when it releases it. An encoder that counted on its last frame
// surviving a Send, a transport that kept a sent frame, or a decoder whose
// values alias a frame it handed back, all compute on 0xA5 from then on.
type poisonTransport struct{ *transport.Coordinator }

func (p poisonTransport) Send(e mpi.Envelope) {
	p.Coordinator.Send(e)
	scribble(e.Frame)
}

func (p poisonTransport) Release(frame []byte) {
	scribble(frame)
	p.Coordinator.Release(frame)
}

type poisonLink struct{ *transport.WorkerConn }

func (p poisonLink) Send(e mpi.Envelope) error {
	err := p.WorkerConn.Send(e)
	scribble(e.Frame)
	return err
}

func (p poisonLink) Release(frame []byte) {
	scribble(frame)
	p.WorkerConn.Release(frame)
}

// startFleet brings up n in-process workers on real TCP sockets, each serving
// wrap(its link) via engine.ServeWorker — the code path cmd/grape-worker runs.
// The returned finish func tears the transport down and fails the test if a
// worker exited uncleanly, worker orphan (-1: none) excepted: after a planned
// Sever the coordinator re-homes that worker's fragment and never speaks to it
// again, so its link ends with the session rather than with a stop frame.
func startFleet(t *testing.T, n, orphan int, wrap func(*transport.WorkerConn) engine.WorkerLink) (*transport.Coordinator, func()) {
	t.Helper()
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.Dial("tcp", l.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			errs[conn.Index()] = engine.ServeWorker(context.Background(), wrap(conn))
		}()
	}
	tr, err := l.AcceptWorkers(n, 10*time.Second)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	return tr, func() {
		tr.Close()
		l.Close()
		wg.Wait()
		for i, err := range errs {
			if err != nil && i != orphan {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	}
}

func plainLink(c *transport.WorkerConn) engine.WorkerLink { return c }

// severAt plans the death of worker 1 with its superstep-step reply in flight.
func severAt(step int) func(mpi.Transport) mpi.Transport {
	return func(tr mpi.Transport) mpi.Transport {
		return mpi.NewFaultTransport(tr, mpi.Fault{Step: step, Worker: 1, Kind: mpi.Sever})
	}
}

// TestFrameOwnershipPoison runs all seven classes over links that overwrite
// every frame the moment it changes hands, failure-free and through a planned
// worker death with recovery: answers, superstep schedule and metered traffic
// must equal the unpoisoned wire run's, and answers and schedule the bus's.
func TestFrameOwnershipPoison(t *testing.T) {
	const workers = 4
	for _, c := range sevenClasses() {
		t.Run(c.name, func(t *testing.T) {
			busRes, bus, err := c.run(engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("bus run: %v", err)
			}
			tr, finish := startFleet(t, workers, -1, plainLink)
			wireRes, wire, err := c.run(engine.Options{Workers: workers, Transport: tr})
			finish()
			if err != nil {
				t.Fatalf("plain wire run: %v", err)
			}
			sever := min(2, bus.Supersteps)
			for _, recover := range []bool{false, true} {
				opts, orphan := engine.Options{Workers: workers}, -1
				if recover {
					opts.Recover, opts.Fault, orphan = true, severAt(sever), 1
				}
				tr, finish := startFleet(t, workers, orphan, func(c *transport.WorkerConn) engine.WorkerLink { return poisonLink{c} })
				opts.Transport = poisonTransport{tr}
				res, st, err := c.run(opts)
				finish()
				if err != nil {
					t.Fatalf("poisoned run (recover=%v): %v", recover, err)
				}
				if !reflect.DeepEqual(res, wireRes) || !reflect.DeepEqual(res, busRes) {
					t.Fatalf("recover=%v: answer differs from the plain runs:\npoisoned: %v\nwire:     %v\nbus:      %v", recover, res, wireRes, busRes)
				}
				if st.Supersteps != wire.Supersteps || st.Messages != wire.Messages || st.Bytes != wire.Bytes || !reflect.DeepEqual(st.BytesPerStep, wire.BytesPerStep) {
					t.Fatalf("recover=%v: %d supersteps, %d messages, %d bytes %v; the plain wire run took %d, %d, %d %v",
						recover, st.Supersteps, st.Messages, st.Bytes, st.BytesPerStep, wire.Supersteps, wire.Messages, wire.Bytes, wire.BytesPerStep)
				}
				if st.Supersteps != bus.Supersteps || !reflect.DeepEqual(st.WorkPerStep, bus.WorkPerStep) {
					t.Fatalf("recover=%v: schedule differs from the bus: %d supersteps %v, bus %d %v", recover, st.Supersteps, st.WorkPerStep, bus.Supersteps, bus.WorkPerStep)
				}
				if recover && len(st.Recoveries) != 1 {
					t.Fatalf("planned sever at superstep %d recorded %d recoveries", sever, len(st.Recoveries))
				}
			}
		})
	}
}

// The reference encoders: the frame encoders as they stood before frames were
// written into reused buffers, each building its frame from nil. Setup and
// adopt frames end in partition.AppendFragment, which this change left alone.
// Updates are handed over named by ID and written as the position both ends
// of the link share: key maps each ID to it — the dense index in the
// receiving fragment's graph (denseAt) or the border position in the sending
// fragment (borderAt); byID keeps a key as it is.

// named is one update of a frame, named by vertex ID.
type named[V any] struct {
	ID  graph.ID
	Val V
}

func refUpdates[V any](c engine.Codec[V], buf []byte, ups []named[V], key func(graph.ID) uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for _, u := range ups {
		buf = binary.AppendUvarint(buf, key(u.ID))
		buf = c.AppendVal(buf, u.Val)
	}
	return buf
}

func denseAt(f *partition.Fragment) func(graph.ID) uint64 {
	return func(id graph.ID) uint64 {
		i, _ := f.G.Index(id)
		return uint64(i)
	}
}

func borderAt(f *partition.Fragment) func(graph.ID) uint64 {
	return func(id graph.ID) uint64 {
		p, _ := f.BorderPos(id)
		return uint64(p)
	}
}

func byID(id graph.ID) uint64 { return uint64(id) }

func refSetup(name string, query []byte, deadlineMicros int64, f *partition.Fragment) []byte {
	var frame []byte
	frame = binary.AppendUvarint(frame, uint64(len(name)))
	frame = append(frame, name...)
	frame = binary.AppendUvarint(frame, uint64(len(query)))
	frame = append(frame, query...)
	frame = binary.AppendUvarint(frame, uint64(deadlineMicros))
	return partition.AppendFragment(graph.AppendSection(frame, 0, nil), f)
}

func refCmd[V any](c engine.Codec[V], f *partition.Fragment, kind byte, ups []named[V]) []byte {
	return refUpdates(c, []byte{kind}, ups, denseAt(f))
}

type refStep[V any] struct {
	step uint64
	ups  []named[V]
}

func refAdopt[V any](c engine.Codec[V], f *partition.Fragment, steps []refStep[V], owe uint64) []byte {
	frame := []byte{6}
	frame = binary.AppendUvarint(frame, owe)
	frame = binary.AppendUvarint(frame, uint64(len(steps)))
	for _, st := range steps {
		frame = binary.AppendUvarint(frame, st.step)
		frame = refUpdates(c, frame, st.ups, denseAt(f))
	}
	return partition.AppendFragment(graph.AppendSection(frame, 0, nil), f)
}

func refReply[V any](c engine.Codec[V], f *partition.Fragment, ups []named[V], work int64, active byte, msg string, computeNS, applyNS uint64) []byte {
	frame := refUpdates(c, nil, ups, borderAt(f))
	frame = append(binary.AppendVarint(frame, work), active)
	frame = binary.AppendUvarint(frame, uint64(len(msg)))
	frame = append(frame, msg...)
	frame = binary.AppendUvarint(frame, computeNS)
	return binary.AppendUvarint(frame, applyNS)
}

// refPartial is the default partial answer of fragment f holding ups: one
// batch by dense index, ascending.
func refPartial[V any](c engine.Codec[V], f *partition.Fragment, ups []named[V]) []byte {
	at := denseAt(f)
	ups = slices.SortedFunc(slices.Values(ups), func(a, b named[V]) int { return cmp.Compare(at(a.ID), at(b.ID)) })
	return refUpdates(c, nil, ups, at)
}

func uvarint(t *testing.T, frame []byte, pos *int) uint64 {
	t.Helper()
	v, n := binary.Uvarint(frame[*pos:])
	if n <= 0 {
		t.Fatalf("bad uvarint at offset %d of a %d-byte frame", *pos, len(frame))
	}
	*pos += n
	return v
}

// updates decodes the batch at *pos and names each update by the vertex its
// position stands for in names, or keeps the key as the ID where names is nil.
func updates[V any](t *testing.T, c engine.Codec[V], frame []byte, pos *int, names []graph.ID) []named[V] {
	t.Helper()
	var ups []named[V]
	for range uvarint(t, frame, pos) {
		key := graph.ID(uvarint(t, frame, pos))
		v, used, err := c.DecodeVal(frame[*pos:])
		if err != nil {
			t.Fatalf("update value at offset %d: %v", *pos, err)
		}
		*pos += used
		if names != nil {
			if key < 0 || int(key) >= len(names) {
				t.Fatalf("update batch before offset %d names position %d of %d", *pos, key, len(names))
			}
			key = names[key]
		}
		ups = append(ups, named[V]{ID: key, Val: v})
	}
	return ups
}

// goldenFrames decodes every frame rec saw and requires the reference
// encoders to reproduce it byte for byte; a partial answer must be one
// well-formed blob of its metered size and, where it is the default (every
// set variable as one batch), hold each vertex
// once and equal the reference layout of what it holds.
func goldenFrames[Q, V, R any](t *testing.T, prog engine.WireProgram[Q, V, R], q Q, layout *partition.Layout, rec *recordingTransport) {
	t.Helper()
	codec := engine.ValueCodec[V](0)
	qblob, err := prog.EncodeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	_, ownPartial := any(prog).(engine.PartialCodec[Q, V])
	kinds := map[string]int{}
	setUp := make([]bool, len(layout.Fragments))
	for _, e := range rec.sent {
		var want []byte
		f := layout.Fragments[e.To]
		switch pos := 1; {
		case !setUp[e.To]:
			setUp[e.To] = true
			kinds["setup"]++
			want = refSetup(prog.Name(), qblob, 0, f)
		case e.Frame[0] == 6:
			kinds["adopt"]++
			owe := uvarint(t, e.Frame, &pos)
			steps := make([]refStep[V], uvarint(t, e.Frame, &pos))
			for i := range steps {
				steps[i].step = uvarint(t, e.Frame, &pos)
				steps[i].ups = updates(t, codec, e.Frame, &pos, f.G.Vertices())
			}
			want = refAdopt(codec, f, steps, owe)
		default:
			kinds["command"]++
			ups := updates(t, codec, e.Frame, &pos, f.G.Vertices())
			if size := pos - 1; len(ups) > 0 && e.Size != size || len(ups) == 0 && e.Size != 0 {
				t.Fatalf("command frame to %d metered %d bytes, its batch of %d takes %d", e.To, e.Size, len(ups), size)
			}
			want = refCmd(codec, f, e.Frame[0], ups)
		}
		if !bytes.Equal(e.Frame, want) {
			t.Fatalf("frame to worker %d (superstep %d) differs from the reference encoding: %d bytes, want %d", e.To, e.Step, len(e.Frame), len(want))
		}
	}
	for _, e := range rec.recv {
		if e.Frame == nil {
			continue // a link's death
		}
		f := layout.Fragments[e.From]
		pos := 0
		if e.Step > 0 {
			kinds["reply"]++
			border := make([]graph.ID, len(f.BorderIndices()))
			for p, i := range f.BorderIndices() {
				border[p] = f.G.IDAt(i)
			}
			ups := updates(t, codec, e.Frame, &pos, border)
			if len(ups) > 0 && e.Size != pos || len(ups) == 0 && e.Size != 0 {
				t.Fatalf("reply frame from %d metered %d bytes, its batch of %d takes %d", e.From, e.Size, len(ups), pos)
			}
			work, n := binary.Varint(e.Frame[pos:])
			pos += n
			active := e.Frame[pos]
			pos++
			msg := string(e.Frame[pos+1:][:e.Frame[pos]]) // no reply here carries an error, let alone a long one
			pos += 1 + len(msg)
			computeNS := uvarint(t, e.Frame, &pos)
			applyNS := uvarint(t, e.Frame, &pos)
			if want := refReply(codec, f, ups, work, active, msg, computeNS, applyNS); !bytes.Equal(e.Frame, want) {
				t.Fatalf("reply frame from worker %d (superstep %d) differs from the reference encoding: %d bytes, want %d", e.From, e.Step, len(e.Frame), len(want))
			}
			continue
		}
		kinds["partial"]++
		pos = 1
		n := int(uvarint(t, e.Frame, &pos))
		if e.Frame[0] != 1 || pos+n != len(e.Frame) || e.Size != n {
			t.Fatalf("partial frame from %d: status %d, body of %d in %d bytes, metered %d", e.From, e.Frame[0], n, len(e.Frame), e.Size)
		}
		if ownPartial {
			continue
		}
		body := pos
		ups := updates(t, codec, e.Frame, &pos, f.G.Vertices())
		if pos != len(e.Frame) {
			t.Fatalf("partial frame from %d: %d trailing bytes", e.From, len(e.Frame)-pos)
		}
		seen := map[graph.ID]bool{}
		for _, u := range ups {
			if seen[u.ID] {
				t.Fatalf("partial frame from %d names vertex %d twice", e.From, u.ID)
			}
			seen[u.ID] = true
		}
		if want := refPartial(codec, f, ups); !bytes.Equal(e.Frame[body:], want) {
			t.Fatalf("partial frame from %d: %d bytes differ from the reference layout's %d", e.From, n, len(want))
		}
	}
	for _, k := range []string{"setup", "adopt", "command", "reply", "partial"} {
		if kinds[k] == 0 {
			t.Fatalf("the run put no %s frame on the wire: %v", k, kinds)
		}
	}
}

// TestWireFramesGolden: reused buffers changed where frames are written, not
// one byte of what is written. Every class runs over a recording transport
// through a planned worker death, so setup, command, adopt, reply and partial
// frames all cross it.
func TestWireFramesGolden(t *testing.T) {
	const workers = 4
	for _, c := range sevenClasses() {
		t.Run(c.name, func(t *testing.T) {
			_, bus, err := c.run(engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("bus run: %v", err)
			}
			layout, err := c.layout(workers)
			if err != nil {
				t.Fatal(err)
			}
			tr, finish := startFleet(t, workers, 1, plainLink)
			defer finish()
			rec := &recordingTransport{Coordinator: tr}
			if _, _, err := c.run(engine.Options{Workers: workers, Layout: layout, Transport: rec, Recover: true, Fault: severAt(min(2, bus.Supersteps))}); err != nil {
				t.Fatal(err)
			}
			c.golden(t, layout, rec)
		})
	}
}
