package engine

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/transport"
)

// stepper is a purpose-built PIE program for cancellation tests: every
// superstep it raises all border values by one, so the fixpoint runs until
// the values reach the query's limit — or forever when the limit is huge,
// which is exactly the abandoned-run shape cancellation must kill. Each
// PEval/IncEval activation signals steps, letting a test cancel
// deterministically "during superstep k" and then verify the workers went
// quiet.
type stepQuery struct{ limit int64 }

type stepper struct{ steps chan struct{} }

func (stepper) Name() string { return "cancel-stepper" }

func (stepper) Spec() VarSpec[int64] {
	return VarSpec[int64]{
		Default: 0,
		Agg: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
	}
}

func (s stepper) signal() {
	select {
	case s.steps <- struct{}{}:
	default:
	}
}

func (s stepper) bump(q stepQuery, ctx *Context[int64]) {
	s.signal()
	var m int64
	for _, i := range ctx.Frag.BorderIndices() {
		if v := ctx.GetAt(i); v > m {
			m = v
		}
	}
	if m >= q.limit {
		return
	}
	for _, i := range ctx.Frag.BorderIndices() {
		ctx.SetAt(i, m+1)
	}
	ctx.AddWork(1)
}

// PEval seeds the wave from vertex 0's owner only: with a single seeder,
// every later superstep some fragment holds a strictly larger value than
// its peers, so changes keep flowing until the limit — the engine cannot
// converge early.
func (s stepper) PEval(q stepQuery, ctx *Context[int64]) error {
	s.signal()
	if ctx.Frag.IsInner(0) {
		for _, i := range ctx.Frag.BorderIndices() {
			ctx.SetAt(i, 1)
		}
	}
	return nil
}

func (s stepper) IncEval(q stepQuery, ctx *Context[int64]) error { s.bump(q, ctx); return nil }

func (s stepper) Assemble(q stepQuery, ctxs []*Context[int64]) (map[graph.ID]int64, error) {
	out := map[graph.ID]int64{}
	for _, ctx := range ctxs {
		ctx.Vars(func(id graph.ID, v int64) {
			if ctx.Frag.IsInner(id) {
				out[id] = v
			}
		})
	}
	return out, nil
}

// ring returns a directed cycle, which hash-partitions into fragments whose
// border is essentially every vertex — each superstep touches every worker.
func ring(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddEdge(graph.ID(i), graph.ID((i+1)%n), 1)
	}
	return b.Graph()
}

// drainThenCount empties steps, waits, and reports how many new signals
// arrived afterwards — after a cancelled Run returns there must be none,
// because the bus substrate waits for every worker goroutine to exit.
func drainThenCount(steps chan struct{}, wait time.Duration) int {
	for {
		select {
		case <-steps:
			continue
		default:
		}
		break
	}
	time.Sleep(wait)
	return len(steps)
}

// TestCancelMidFixpoint cancels an effectively endless run during superstep
// k on the in-process bus and asserts the run fails with the context error,
// records the superstep it died at, and leaves no worker goroutine still
// computing.
func TestCancelMidFixpoint(t *testing.T) {
	g := ring(64)
	steps := make(chan struct{}, 4096)
	prog := stepper{steps: steps}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	var gotErr error
	var gotSteps int
	go func() {
		_, st, err := Run(ctx, g, prog, stepQuery{limit: 1 << 40}, Options{Workers: 4, MaxSupersteps: 1 << 30})
		if st != nil {
			gotSteps = st.Supersteps
		}
		gotErr = err
		done <- err
	}()

	// superstep k: let a few rounds of activations through, then cancel.
	for i := 0; i < 16; i++ {
		select {
		case <-steps:
		case <-time.After(10 * time.Second):
			t.Fatal("stepper never ran")
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
	if !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", gotErr)
	}
	if !strings.Contains(gotErr.Error(), "cancelled at superstep") {
		t.Fatalf("error should carry the superstep it died at: %v", gotErr)
	}
	if gotSteps < 2 {
		t.Fatalf("expected the run to have been mid-fixpoint, died at superstep %d", gotSteps)
	}
	// Workers observed the cancellation: once Run returned, every worker
	// goroutine has exited (stop waits), so no further activations may land.
	if extra := drainThenCount(steps, 100*time.Millisecond); extra != 0 {
		t.Fatalf("%d worker activations after the cancelled run returned", extra)
	}
}

// TestCancelledResidentRunLeavesPoolClean cancels runs mid-fixpoint on a
// resident layout and asserts (a) the cancelled runs error with the context
// error, and (b) subsequent runs on the same layout — which recycle the
// very contexts and fold state the cancelled runs abandoned to RunOnLayout's
// pool — still produce the exact fixpoint a fresh engine produces.
func TestCancelledResidentRunLeavesPoolClean(t *testing.T) {
	g := ring(64)
	layout, err := BuildLayout(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	steps := make(chan struct{}, 4096)
	prog := stepper{steps: steps}
	run := func(ctx context.Context, q stepQuery) (map[graph.ID]int64, error) {
		res, _, err := RunOnLayout(ctx, layout, prog, q, Options{})
		return res, err
	}
	q := stepQuery{limit: 40}

	want, err := run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline run assembled nothing")
	}

	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			_, err := run(ctx, stepQuery{limit: 1 << 40})
			errCh <- err
		}()
		for i := 0; i < 8; i++ {
			select {
			case <-steps:
			case <-time.After(10 * time.Second):
				t.Fatal("stepper never ran")
			}
		}
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: want context.Canceled, got %v", round, err)
		}
		drainThenCount(steps, 0)

		got, err := run(context.Background(), q)
		if err != nil {
			t.Fatalf("round %d: run after cancellation: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d vertices, want %d", round, len(got), len(want))
		}
		for id, v := range want {
			if got[id] != v {
				t.Fatalf("round %d: vertex %d = %d, want %d (pooled scratch leaked state)", round, id, got[id], v)
			}
		}
	}
}

// chanLink is an in-process WorkerLink over channels, for exercising the
// worker side of the wire protocol without sockets. A frame is the sender's
// again when Send returns (mpi.Envelope), so the channel carries a copy.
type chanLink struct {
	in  chan mpi.Envelope
	out chan mpi.Envelope
}

func (l chanLink) Recv() (mpi.Envelope, error) { return <-l.in, nil }
func (l chanLink) Send(e mpi.Envelope) error {
	e.Frame = slices.Clone(e.Frame)
	l.out <- e
	return nil
}
func (chanLink) Release([]byte) {}

// TestWorkerHonorsPropagatedDeadline drives serveWire directly with an
// already-expired run context — the shape a worker process is in once the
// deadline the coordinator shipped in the setup frame fires — and asserts
// the worker refuses to compute: the PEval command comes back as an error
// reply carrying the deadline error instead of a result.
func TestWorkerHonorsPropagatedDeadline(t *testing.T) {
	g := ring(8)
	layout, err := BuildLayout(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := wireStepper{stepper{steps: make(chan struct{}, 16)}}
	k := kindFor[int64]()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	link := chanLink{in: make(chan mpi.Envelope, 4), out: make(chan mpi.Envelope, 4)}
	served := make(chan error, 1)
	go func() {
		served <- serveWire(ctx, prog, link, stepQuery{limit: 1 << 40}, &wireScratch[int64]{ctx: newContext(layout.Fragments[0], declared(prog.Spec()))})
	}()

	peFrame, _ := encodeCmd(k, nil, workerCmd[int64]{kind: cmdPEval})
	link.in <- mpi.Envelope{From: mpi.Coordinator, To: 0, Step: 1, Frame: peFrame}
	env := <-link.out
	rep, err := decodeReply(k, nil, env.Frame, len(layout.Fragments[0].BorderIndices()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.err == nil || !strings.Contains(rep.err.Error(), "deadline") {
		t.Fatalf("expired worker must reply with the deadline error, got %v", rep.err)
	}
	// the abort frame releases the worker with ErrAborted
	abFrame, _ := encodeCmd(k, nil, workerCmd[int64]{kind: cmdAbort})
	link.in <- mpi.Envelope{From: mpi.Coordinator, To: 0, Frame: abFrame}
	if err := <-served; !errors.Is(err, ErrAborted) {
		t.Fatalf("abort frame must surface ErrAborted, got %v", err)
	}
}

// chanTransport is the coordinator's end of one chanLink per worker.
type chanTransport struct{ links []chanLink }

func (c chanTransport) Workers() int { return len(c.links) }
func (c chanTransport) Send(e mpi.Envelope) {
	e.Frame = slices.Clone(e.Frame)
	c.links[e.To].in <- e
}
func (chanTransport) Release([]byte)               {}
func (chanTransport) Messages() int64              { return 0 }
func (chanTransport) Bytes() int64                 { return 0 }
func (chanTransport) AddTraffic(msgs, bytes int64) {}
func (chanTransport) Wire() bool                   { return true }
func (c chanTransport) Recv(ctx context.Context, party int) (mpi.Envelope, error) {
	select {
	case e := <-c.links[0].out: // the links share one channel up
		return e, nil
	case <-ctx.Done():
		return mpi.Envelope{}, ctx.Err()
	}
}

// runsOfThree is ring(9) cut into three runs of three: 0 → 1 → … → 8 → 0,
// so fragment 0 copies 3, fragment 1 copies 6, fragment 2 copies 0, and each
// fragment's border is two vertices — the one it copies and the one copied
// from it.
func runsOfThree(t testing.TB) *partition.Layout {
	t.Helper()
	g := ring(9)
	asg := partition.NewAssignment(g, 3)
	for v := graph.ID(0); v < 9; v++ {
		asg.SetOwner(v, int(v)/3)
	}
	layout := partition.Build(g, asg)
	for _, f := range layout.Fragments {
		if len(f.BorderIndices()) != 2 {
			t.Fatalf("fixture: fragment %d has border %v", f.Index, f.BorderIndices())
		}
	}
	return layout
}

// forgery is a reply frame that worker from can put on the wire and no
// encoder of this package will, and the words its refusal must contain.
type forgery struct {
	from  int
	frame []byte
	want  string
}

// forgedReplies are the shapes a corrupt or hostile worker's change batch can
// take against runsOfThree: positions the sender's border does not have, or
// out of the ascending order flush emits, or a value cut short.
func forgedReplies() map[string]forgery {
	naming := func(at ...int32) []byte {
		ups := make([]update[int64], len(at))
		for i, p := range at {
			ups[i] = update[int64]{at: p, val: 1}
		}
		frame, _ := encodeReply(kindFor[int64](), nil, workerReply[int64]{changes: ups})
		return frame
	}
	return map[string]forgery{
		"a position past the border": {1, naming(2), "position 2, outside [0, 2)"},
		"a repeated position":        {0, naming(1, 1), "position 1, outside [2, 2)"},
		"a descending pair":          {2, naming(1, 0), "position 0, outside [2, 2)"},
		"a truncated value":          {1, naming(0)[:1+1+7], "truncated 64-bit word"},
	}
}

// TestReplyNamingForeignVertexFailsRun: a reply frame whose change batch
// names a border position its sender does not have, or breaks the ascending
// order a flush emits, or ends inside a value — a corrupt or hostile worker —
// must fail the run with an error naming the worker, never reach the fold
// (folding it would route a forged value to the owner of whatever vertex the
// position happened to land on).
func TestReplyNamingForeignVertexFailsRun(t *testing.T) {
	layout := runsOfThree(t)
	for name, c := range forgedReplies() {
		t.Run(name, func(t *testing.T) {
			up := make(chan mpi.Envelope, 4)
			var tr chanTransport
			for range layout.Fragments {
				tr.links = append(tr.links, chanLink{in: make(chan mpi.Envelope, 4), out: up})
			}
			for w, link := range tr.links {
				go func() { // a scripted worker: setup frame, one PEval, then whatever releases it
					<-link.in
					step := <-link.in
					frame := c.frame
					if w != c.from {
						frame, _ = encodeReply(kindFor[int64](), nil, workerReply[int64]{})
					}
					link.Send(mpi.Envelope{From: w, To: mpi.Coordinator, Step: step.Step, Frame: frame, Size: len(frame)})
					<-link.in
				}()
			}
			_, _, err := RunOnLayout(context.Background(), layout, wireStepper{stepper{}}, stepQuery{limit: 4}, Options{Workers: 3, Transport: tr})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("worker %d", c.from)) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want a run error naming worker %d and %q, got %v", c.from, c.want, err)
			}
		})
	}
}

// wireStepper gives stepper the query encoding the wire tests need.
type wireStepper struct{ stepper }

func (wireStepper) EncodeQuery(q stepQuery) ([]byte, error) {
	return kindFor[int64]().codec.AppendVal(nil, q.limit), nil
}

func (wireStepper) DecodeQuery(data []byte) (stepQuery, error) {
	v, _, err := kindFor[int64]().codec.DecodeVal(data)
	return stepQuery{limit: v}, err
}

// TestCancelledUpdateBreaksSession: an aborted incremental fixpoint leaves
// the session's retained fold diverged from the fragments, so the session
// must refuse further use instead of returning silently stale answers.
func TestCancelledUpdateBreaksSession(t *testing.T) {
	g := graph.New()
	for i := 0; i < 32; i++ {
		g.AddEdge(graph.ID(i), graph.ID(i+1), 1)
	}
	prog := updStepper{stepper{steps: make(chan struct{}, 1024)}}
	s, _, _, err := NewSession(context.Background(), g, prog, stepQuery{limit: 6}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Update(ctx, []EdgeUpdate{{From: 0, To: 5, W: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from the aborted update, got %v", err)
	}
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 1, To: 6, W: 1}}); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("a broken session must refuse further updates, got %v", err)
	}
	if _, err := s.Result(); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("a broken session must refuse Result, got %v", err)
	}
}

// TestCancelMessageSameOnEveryEntryPoint: there is one superstep driver, so
// a cancelled run reports the same "engine: <prog> cancelled at superstep k"
// error whichever door it came through — a one-shot bus run, an entry's
// resident runner, worker processes behind sockets, or a session update.
func TestCancelMessageSameOnEveryEntryPoint(t *testing.T) {
	registerWireStepper()
	const n = 4
	layout, err := BuildLayout(ring(64), Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	prog := wireStepper{stepper{steps: make(chan struct{}, 1)}}
	endless := stepQuery{limit: 1 << 40}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	entries := map[string]func() error{
		"bus": func() error {
			_, _, err := RunOnLayout(ctx, layout, prog, endless, Options{})
			return err
		},
		"resident": func() error {
			e := MakeEntry(EntrySpec[stepQuery, int64, map[graph.ID]int64]{
				Prog:      prog,
				Parse:     func(string) (stepQuery, error) { return endless, nil },
				Canonical: func(stepQuery) string { return "" },
			})
			r, err := e.Resident(layout, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = r.RunParsed(ctx, ParsedQuery{Program: e.Name, Query: endless})
			return err
		},
		"wire": func() error {
			l, err := transport.NewListener("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var workers sync.WaitGroup
			for i := 0; i < n; i++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					w, err := transport.Dial("tcp", l.Addr().String(), 10*time.Second)
					if err != nil {
						t.Error(err)
						return
					}
					defer w.Close()
					if err := ServeWorker(context.Background(), w); !errors.Is(err, ErrAborted) {
						t.Errorf("worker of a cancelled run: want ErrAborted, got %v", err)
					}
				}()
			}
			tr, err := l.AcceptWorkers(n, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = RunOnLayout(ctx, layout, prog, endless, Options{Transport: tr})
			workers.Wait()
			tr.Close()
			return err
		},
		"session": func() error {
			g := graph.New()
			for i := 0; i < 32; i++ {
				g.AddEdge(graph.ID(i), graph.ID(i+1), 1)
			}
			s, _, _, err := NewSession(context.Background(), g, updStepper{prog.stepper}, stepQuery{limit: 6}, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = s.Update(ctx, []EdgeUpdate{{From: 0, To: 5, W: 1}})
			return err
		},
	}
	want := regexp.MustCompile(`^engine: cancel-stepper cancelled at superstep \d+: context canceled$`)
	for name, run := range entries {
		err := run()
		if !errors.Is(err, context.Canceled) || !want.MatchString(err.Error()) {
			t.Errorf("%s: want %q wrapping context.Canceled, got %v", name, want, err)
		}
	}
}

// updStepper adds the Repairer hook so stepper can drive a Session; negative
// weights are rejected (after the batch is spliced in, like a repairer's
// failure) so tests can trigger a mid-batch apply failure.
type updStepper struct{ stepper }

func (u updStepper) CanRepair(q stepQuery, batch []EdgeUpdate) bool { return true }

func (u updStepper) RepairBatch(q stepQuery, sc *RepairScope[int64], batch []EdgeUpdate) (map[int][]graph.ID, error) {
	dirty := make(map[int][]graph.ID)
	for _, upd := range batch {
		if upd.W < 0 {
			return nil, errors.New("negative weight")
		}
		w := sc.Owner(upd.From)
		dirty[w] = append(dirty[w], upd.From, upd.To)
	}
	return dirty, nil
}

// TestFailedApplyBreaksSession: an error from the repair hook comes after the
// whole batch is spliced into the graph, so the session must mark itself
// broken exactly like an aborted fixpoint.
func TestFailedApplyBreaksSession(t *testing.T) {
	g := graph.New()
	for i := 0; i < 32; i++ {
		g.AddEdge(graph.ID(i), graph.ID(i+1), 1)
	}
	prog := updStepper{stepper{steps: make(chan struct{}, 1024)}}
	s, _, _, err := NewSession(context.Background(), g, prog, stepQuery{limit: 6}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid input (unknown vertex) at index >= 1 is rejected by the
	// pre-mutation validation pass: the batch fails but the session stays
	// usable — bad input must not cost a long-lived session.
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 5, W: 1}, {From: 0, To: 999, W: 1}}); err == nil {
		t.Fatal("unknown vertex must fail the batch")
	}
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 5, W: 1}}); err != nil {
		t.Fatalf("rejected input must not break the session: %v", err)
	}
	_, _, err = s.Update(context.Background(), []EdgeUpdate{{From: 0, To: 6, W: 1}, {From: 1, To: 7, W: -1}})
	if err == nil || !strings.Contains(err.Error(), "negative weight") {
		t.Fatalf("want the apply error, got %v", err)
	}
	if _, _, err := s.Update(context.Background(), []EdgeUpdate{{From: 2, To: 8, W: 1}}); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("a session with a half-applied batch must refuse further updates, got %v", err)
	}
}

// closableLink is a chanLink whose Close unblocks Recv — the shape of a real
// socket link, letting tests exercise the deadline-closes-the-link path.
type closableLink struct {
	ch        chan mpi.Envelope
	closeOnce sync.Once
	closed    chan struct{}
}

func (l *closableLink) Recv() (mpi.Envelope, error) {
	select {
	case e := <-l.ch:
		return e, nil
	case <-l.closed:
		return mpi.Envelope{}, errors.New("link closed")
	}
}

func (l *closableLink) Send(e mpi.Envelope) error { return nil }
func (l *closableLink) Release([]byte)            {}

func (l *closableLink) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

var registerWireStepper = sync.OnceFunc(func() {
	Register(MakeEntry(EntrySpec[stepQuery, int64, map[graph.ID]int64]{
		Prog:        wireStepper{stepper{steps: make(chan struct{}, 16)}},
		Description: "endless stepper for worker deadline tests",
		QueryHelp:   "(none)",
		Parse:       func(string) (stepQuery, error) { return stepQuery{limit: 1 << 40}, nil },
		Canonical:   func(stepQuery) string { return "" },
	}))
})

// TestIdleWorkerDeadlineUnblocks pins the netsplit half of deadline
// propagation: a worker that received its setup frame (with a deadline) and
// then hears nothing more — a wedged, not dead, coordinator — must still
// end at the deadline. The deadline context closes the link, unblocking the
// idle Recv.
func TestIdleWorkerDeadlineUnblocks(t *testing.T) {
	registerWireStepper()
	g := ring(8)
	layout, err := BuildLayout(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := wireStepper{stepper{}}
	qblob, err := prog.EncodeQuery(stepQuery{limit: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(150 * time.Millisecond)
	setup := encodeSetup(nil, "cancel-stepper", qblob, deadline.UnixMicro(), layout.Fragments[0])

	link := &closableLink{ch: make(chan mpi.Envelope, 1), closed: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- ServeWorker(context.Background(), link) }()
	link.ch <- mpi.Envelope{From: mpi.Coordinator, To: 0, Frame: setup}

	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle worker hung past its propagated deadline")
	}
}

// deadLinkTransport is a wire transport whose every worker link is already
// broken: sends vanish and Recv delivers one worker-fatal envelope per
// worker, round-robin.
type deadLinkTransport struct{ n, next int }

func (d *deadLinkTransport) Workers() int               { return d.n }
func (*deadLinkTransport) Send(mpi.Envelope)            {}
func (*deadLinkTransport) Release([]byte)               {}
func (*deadLinkTransport) Messages() int64              { return 0 }
func (*deadLinkTransport) Bytes() int64                 { return 0 }
func (*deadLinkTransport) AddTraffic(msgs, bytes int64) {}
func (*deadLinkTransport) Wire() bool                   { return true }
func (d *deadLinkTransport) Recv(ctx context.Context, party int) (mpi.Envelope, error) {
	w := d.next % d.n
	d.next++
	return mpi.Envelope{From: w, To: mpi.Coordinator, Payload: mpi.WorkerFatal(w, errors.New("worker link: EOF"))}, nil
}

// reachedDeadlineCtx is a context at the instant the race in
// TestWireDeadlinePropagates opens: its deadline has been reached, its timer
// has not fired yet (Err is nil, Done stays open).
type reachedDeadlineCtx struct{ context.Context }

func (reachedDeadlineCtx) Deadline() (time.Time, bool) {
	return time.Now().Add(-time.Microsecond), true
}

// TestLinkFailureAtDeadlineCarriesDeadline: a wire worker holds a copy of the
// run deadline and closes its link when it expires, possibly a hair before
// the coordinator's own timer fires. The link failure the barrier then sees
// is the deadline's doing and must say so — as the cancelled path does —
// while a link failure on a run with time left stays a plain fault.
func TestLinkFailureAtDeadlineCarriesDeadline(t *testing.T) {
	layout, err := BuildLayout(ring(8), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) error {
		_, _, err := RunOnLayout(ctx, layout, wireStepper{stepper{}}, stepQuery{limit: 4}, Options{Workers: 2, Transport: &deadLinkTransport{n: 2}})
		return err
	}
	err = run(reachedDeadlineCtx{context.Background()})
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "worker link: EOF") {
		t.Fatalf("want the link failure carrying context.DeadlineExceeded, got %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := run(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a plain link failure with an hour left, got %v", err)
	}
}
