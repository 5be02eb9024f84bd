package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"grape/internal/mpi"
	"grape/internal/partition"
)

// This file is the engine's wire layer: everything needed to run the PIE
// fixpoint with each worker in its own OS process on the far side of a
// socket transport (internal/transport). The coordinator loop is fixpoint,
// as on the bus; underneath it wireSubstrate fills envelopes with frames,
// each value in its type's wire format (value.go), instead of Go values
// passed by reference, so traffic is metered by actual encoded lengths, not
// the bus's estimate.

// WireProgram is a Program that can run distributed: it provides an
// encoding for its query, so the coordinator can ship it to worker
// processes; its values travel in the value table's formats. Programs whose
// Assemble reads more than the node variables additionally implement
// PartialCodec.
type WireProgram[Q, V, R any] interface {
	Program[Q, V, R]
	// EncodeQuery serializes q for the setup frame.
	EncodeQuery(q Q) ([]byte, error)
	// DecodeQuery is the worker-side inverse of EncodeQuery.
	DecodeQuery(data []byte) (Q, error)
}

// PartialCodec is implemented by wire programs whose Assemble reads
// program-private state (Context.State or Context.Partial) rather than just
// the node variables. EncodePartial runs on the worker after the fixpoint;
// DecodePartial reconstitutes a coordinator-side Context that Assemble can
// consume. Programs without it get the default: the worker ships all set
// node variables and the coordinator replays them with SetLocal.
// EncodePartial appends to buf, the worker's frame buffer; data is the
// received frame, which DecodePartial must not retain.
type PartialCodec[Q, V any] interface {
	EncodePartial(buf []byte, q Q, ctx *Context[V]) ([]byte, error)
	DecodePartial(q Q, ctx *Context[V], data []byte) error
}

// WorkerLink is a worker's end of a wire transport: the counterpart of the
// coordinator's mpi.Transport. internal/transport's WorkerConn implements it
// over a socket; tests implement it over channels.
type WorkerLink interface {
	// Recv blocks until a frame from the coordinator arrives.
	Recv() (mpi.Envelope, error)
	// Send delivers a frame to the coordinator.
	Send(e mpi.Envelope) error
	// Release hands a frame Recv delivered back for reuse (mpi.Envelope).
	Release(frame []byte)
}

// ErrNoWireSupport is returned (wrapped) when a distributed run is requested
// for a program that does not implement WireProgram, or whose registry entry
// lacks a Wire hook.
var ErrNoWireSupport = errors.New("program has no query encoding for the wire")

// abortDrainTimeout bounds how long a cancelled coordinator waits for the
// in-flight superstep's replies after broadcasting abort frames. Normal
// runs drain within one superstep; the timeout only fires for pathological
// programs, whose workers then see a closed link instead of the abort.
const abortDrainTimeout = 30 * time.Second

// ErrAborted is returned (wrapped) by the worker side of a distributed run
// when the coordinator sends an abort frame: the run was cancelled (client
// gone, deadline expired), the partial state is garbage, and the worker
// should discard it and exit. cmd/grape-worker treats it as a clean exit.
var ErrAborted = errors.New("run aborted by coordinator")

// wireSubstrate drives remote worker processes through Options.Transport.
// Each worker receives a setup frame (program name, encoded query, the run
// deadline if ctx carries one, its fragment), runs PEval/IncEval on command,
// and finally ships its encoded partial answer back for Assemble.
// Cancellation crosses the process boundary twice: an abort frame makes each
// worker discard its run and exit, and the deadline in the setup frame lets a
// worker bound its own run even if the coordinator dies before the abort.
type wireSubstrate[Q, V, R any] struct {
	prog   WireProgram[Q, V, R]
	q      Q
	layout *partition.Layout
	kind   *valueKind[V]
	tr     mpi.Transport
	// buf is the frame every command is encoded into, decoded[w] the batch
	// worker w's reply is decoded into: fold is done with it before w replies
	// again. decoded and ctxs, the contexts finish decodes the partial
	// answers into, are the run scratch's.
	buf     []byte
	decoded [][]update[V]
	ctxs    []*Context[V]

	// Recovery (Options.Recover): each fragment starts on its own worker
	// process (host); hostOf, aliveHost and hostLoad track the re-homing.
	reassign  mpi.Reassigner
	loads     []float64
	hostOf    []int
	aliveHost []bool
	hostLoad  []float64
}

func newWireSubstrate[Q, V, R any](layout *partition.Layout, prog Program[Q, V, R], q Q, spec vars[V], opts Options, sc *runScratch[V]) (*wireSubstrate[Q, V, R], error) {
	wp, ok := any(prog).(WireProgram[Q, V, R])
	if !ok {
		return nil, fmt.Errorf("engine: %s: %w", prog.Name(), ErrNoWireSupport)
	}
	tr := opts.Transport
	n := len(layout.Fragments)
	if tr.Workers() != n {
		return nil, fmt.Errorf("engine: transport has %d workers but the layout has %d fragments", tr.Workers(), n)
	}
	if opts.Fault != nil {
		tr = opts.Fault(tr)
	}
	s := &wireSubstrate[Q, V, R]{prog: wp, q: q, layout: layout, kind: spec.valueKind, tr: tr, decoded: sc.decoded, ctxs: sc.ctxs}
	if opts.Recover {
		if s.reassign, ok = tr.(mpi.Reassigner); !ok {
			return nil, errors.New("engine: Options.Recover needs a transport that can reassign fragments (mpi.Reassigner)")
		}
		s.loads = estimateLoads(layout)
		s.hostLoad = append([]float64(nil), s.loads...)
		s.hostOf = make([]int, n)
		s.aliveHost = make([]bool, n)
		for i := range s.hostOf {
			s.hostOf[i], s.aliveHost[i] = i, true
		}
	}
	// A fleet whose workers serve one run each (transport.Coordinator) is
	// claimed last, so that a run refused above leaves it for the next one.
	if fleet, ok := opts.Transport.(interface{ Claim() error }); ok {
		if err := fleet.Claim(); err != nil {
			return nil, fmt.Errorf("engine: %s: %w", prog.Name(), err)
		}
	}
	return s, nil
}

func (s *wireSubstrate[Q, V, R]) link() mpi.Transport { return s.tr }

// staged holds the buffers setup frames are encoded into: Send is done with a
// frame when it returns, so a buffer serves the next link or session.
var staged = sync.Pool{New: func() any { return new([]byte) }}

// open ships the setup frames, all links at once: no worker waits for the
// fragments before its own to be encoded and written.
func (s *wireSubstrate[Q, V, R]) open(ctx context.Context) error {
	qblob, err := s.prog.EncodeQuery(s.q)
	if err != nil {
		return fmt.Errorf("engine: encoding query: %w", err)
	}
	var deadlineMicros int64
	if dl, ok := ctx.Deadline(); ok {
		// rounded up: a worker must not expire before its coordinator
		deadlineMicros = dl.Add(time.Microsecond - 1).UnixMicro()
	}
	var wg sync.WaitGroup
	for i, f := range s.layout.Fragments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := staged.Get().(*[]byte)
			*buf = encodeSetup(*buf, s.prog.Name(), qblob, deadlineMicros, f)
			s.tr.Send(mpi.Envelope{From: mpi.Coordinator, To: i, Frame: *buf})
			staged.Put(buf)
		}()
	}
	wg.Wait()
	return nil
}

func (s *wireSubstrate[Q, V, R]) command(w, step int, cmd workerCmd[V]) {
	var dataLen int
	s.buf, dataLen = encodeCmd(s.kind, s.buf, cmd)
	s.tr.Send(mpi.Envelope{From: mpi.Coordinator, To: w, Step: step, Frame: s.buf, Size: dataLen})
}

func (s *wireSubstrate[Q, V, R]) reply(env mpi.Envelope) (workerReply[V], error) {
	frame, err := wireFrame(env)
	if err != nil {
		return workerReply[V]{}, err
	}
	rep, err := decodeReply(s.kind, s.decoded[env.From], frame, len(s.layout.Fragments[env.From].BorderIndices()))
	s.decoded[env.From] = rep.changes
	s.tr.Release(frame)
	return rep, err
}

// revive over the wire: when a host's link dies, every fragment assigned to
// it gets a worker-fatal envelope; each is re-homed onto the least loaded
// surviving host (by estimateLoads, greedily), the transport's routing is
// pointed at it, and an adopt frame ships the fragment plus its checkpoint
// replay log. A host that dies during the reassignment is marked dead and
// the pick repeats; with no survivors the run fails.
func (s *wireSubstrate[Q, V, R]) revive(frag int, log []replayStep[V], owe int) (int, error) {
	s.aliveHost[s.hostOf[frag]] = false
	for {
		host := -1
		for h, alive := range s.aliveHost {
			if alive && (host < 0 || s.hostLoad[h] < s.hostLoad[host]) {
				host = h
			}
		}
		if host < 0 {
			return 0, errors.New("no surviving workers to adopt the fragment")
		}
		if err := s.reassign.Reassign(frag, host); err != nil {
			s.aliveHost[host] = false
			continue
		}
		s.hostOf[frag] = host
		s.hostLoad[host] += s.loads[frag]
		frame := encodeAdopt(s.kind, s.layout.Fragments[frag], log, owe)
		s.tr.Send(mpi.Envelope{From: mpi.Coordinator, To: frag, Frame: frame})
		return host, nil
	}
}

// estimateLoads weighs every fragment of l for re-homing: 1 per vertex, 4
// per edge, 8 per border node.
func estimateLoads(l *partition.Layout) []float64 {
	out := make([]float64, len(l.Fragments))
	for i, f := range l.Fragments {
		out[i] = float64(len(f.InnerIndices())) + 4*float64(f.G.NumEdges()) + 8*float64(len(f.BorderIndices()))
	}
	return out
}

// broadcast sends every fragment's worker a bare control command.
func (s *wireSubstrate[Q, V, R]) broadcast(kind cmdKind) {
	for i := range s.layout.Fragments {
		s.command(i, 0, workerCmd[V]{kind: kind})
	}
}

// release sends plain stop frames after a completed run or a run error:
// workers exit cleanly. A *cancelled* run is aborted instead (workers discard
// state and surface ErrAborted), then one frame is drained from every worker
// whose reply is still in flight: a worker mid-PEval/IncEval finishes and
// ships that one reply, and returning (and closing) with it unread in the
// receive buffer would RST the link and turn the clean abort into a
// broken-pipe error on the worker. A worker whose link errors (nil Frame) is
// gone and counts as drained; frames from other workers (e.g. their link
// teardown as they exit on the abort) are ignored. Bounded by one superstep
// of compute, with a hard timeout as the backstop for pathological programs.
func (s *wireSubstrate[Q, V, R]) release(cancelled bool, inflight []bool) {
	if !cancelled {
		s.broadcast(cmdStop)
		return
	}
	s.broadcast(cmdAbort)
	//grapevet:keep the run ctx is already cancelled here; the drain needs its own fresh bound or Recv would return immediately
	dctx, cancel := context.WithTimeout(context.Background(), abortDrainTimeout)
	defer cancel()
	for slices.Contains(inflight, true) {
		e, err := s.tr.Recv(dctx, mpi.Coordinator)
		if err != nil {
			return
		}
		if e.From >= 0 && e.From < len(inflight) {
			inflight[e.From] = false
		}
	}
}

// finish pulls every worker's encoded partial answer into the run's contexts,
// bound to their fragments and cleared, for Assemble, then releases the
// workers — by abort, draining the partials still in flight, if the run was
// cancelled meanwhile.
func (s *wireSubstrate[Q, V, R]) finish(ctx context.Context, step int, lost func(frag int) error) (ctxs []*Context[V], err error) {
	n := len(s.layout.Fragments)
	unseen := slices.Repeat([]bool{true}, n)
	defer func() { s.release(err != nil && ctx.Err() != nil, unseen) }()
	s.broadcast(cmdAssemble)
	ctxs = s.ctxs
	for slices.Contains(unseen, true) {
		env, err := s.tr.Recv(ctx, mpi.Coordinator)
		if err != nil {
			return nil, cancelled(s.prog.Name(), step, err)
		}
		if perr, ok := env.Payload.(error); ok && env.Frame == nil {
			// A worker died between the fixpoint and shipping its partial. Its
			// fragment's full command log is checkpointed, so revive it (nothing
			// is owed — the fixpoint's replies all landed) and ask the adopter.
			w, workerFatal := mpi.WorkerFatalOf(perr)
			if !workerFatal || lost == nil || w < 0 || w >= n {
				return nil, fmt.Errorf("engine: worker %d partial result: %w", env.From, perr)
			}
			if !unseen[w] {
				continue // this fragment's partial already landed; the death is moot
			}
			if err := lost(w); err != nil {
				return nil, fmt.Errorf("engine: worker %d partial result: recovering from %v: %w", w, perr, err)
			}
			s.command(w, 0, workerCmd[V]{kind: cmdAssemble})
			continue
		}
		if env.From < 0 || env.From >= n || !unseen[env.From] {
			return nil, fmt.Errorf("engine: unexpected partial result from worker %d", env.From)
		}
		blob, err := wireFrame(env)
		if err == nil {
			blob, err = decodePartialFrame(blob)
		}
		if err == nil {
			err = decodePartial(s.prog, s.kind, s.q, ctxs[env.From], blob)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: worker %d partial result: %w", env.From, err)
		}
		s.tr.Release(env.Frame)
		unseen[env.From] = false
	}
	return ctxs, nil
}

// wireFrame unwraps an envelope from a wire transport, surfacing link
// failures (delivered as a nil Frame with the error in Payload).
func wireFrame(env mpi.Envelope) ([]byte, error) {
	if env.Frame != nil {
		return env.Frame, nil
	}
	if err, ok := env.Payload.(error); ok {
		//grapevet:keep the payload error was classified by the transport that emitted the fatal envelope
		return nil, fmt.Errorf("transport: %w", err)
	}
	return nil, mpi.RunFatal(errors.New("transport: link closed"))
}

// serveWire is the worker process's serve loop: command frames in, encoded
// replies out. A worker starts hosting the fragment its setup frame assigned
// it, sc.ctx's, but recovery can hand it more: an adopt frame carries a dead
// peer's fragment plus its checkpoint replay log, and from then on commands
// are dispatched to the addressed fragment (Envelope.To, the frame header's
// fragment field). The worker exits when a stop frame has released every
// fragment it hosts, or with ErrAborted on an abort frame. runCtx carries the
// deadline the coordinator shipped in the setup frame (plus whatever the
// worker process layered on, e.g. a signal context).
func serveWire[Q, V, R any](runCtx context.Context, prog WireProgram[Q, V, R], link WorkerLink, q Q, sc *wireScratch[V]) error {
	f := sc.ctx.Frag
	spec := sc.ctx.spec
	k := spec.valueKind
	ctxs := map[int]*Context[V]{f.Index: sc.ctx}
	// An adopted fragment is decoded in place, so its frame goes back only
	// once the run that lives in it has returned.
	var adopted [][]byte
	defer func() {
		for _, frame := range adopted {
			link.Release(frame)
		}
	}()
	for {
		env, err := link.Recv()
		if err != nil {
			return fmt.Errorf("engine: worker %d: %w", f.Index, err)
		}
		if len(env.Frame) > 0 && cmdKind(env.Frame[0]) == cmdAdopt {
			adopted = append(adopted, env.Frame)
			ad, err := decodeAdopt(k, env.Frame)
			if err != nil {
				return fmt.Errorf("engine: worker %d: %w", f.Index, err)
			}
			nc := newContext(ad.frag, spec)
			rerr := replayFragment(prog, q, nc, ad.steps, ad.owe)
			ctxs[ad.frag.Index] = nc
			// Only the owed superstep's reply (or a replay error) goes back:
			// every earlier reply was already folded by the coordinator.
			if ad.owe > 0 || rerr != nil {
				if sc.buf, err = replyWire(link, k, sc.buf, ad.frag.Index, ad.owe, nc, 0, 0, rerr); err != nil {
					return fmt.Errorf("engine: worker %d: %w", f.Index, err)
				}
			}
			continue
		}
		ctx := ctxs[env.To]
		if ctx == nil {
			return mpi.RunFatal(fmt.Errorf("engine: worker %d: command for fragment %d, which this worker does not host", f.Index, env.To))
		}
		cmd, err := decodeCmd(k, sc.ups, env.Frame, ctx.Frag.G.NumVertices())
		if err != nil {
			return fmt.Errorf("engine: worker %d: %w", f.Index, err)
		}
		sc.ups = cmd.updates
		link.Release(env.Frame)
		switch cmd.kind {
		case cmdStop:
			delete(ctxs, env.To)
			if len(ctxs) == 0 {
				return nil
			}
		case cmdAbort:
			//grapevet:keep ErrAborted is a cooperative shutdown the worker main matches with errors.Is, not a link fault
			return fmt.Errorf("engine: worker %d: %w", f.Index, ErrAborted)
		case cmdAssemble:
			sc.buf = append(sc.buf[:0], make([]byte, partialHead)...)
			size := 0
			body, perr := encodePartial(prog, sc.buf, q, ctx)
			if perr == nil {
				sc.buf, size = body, len(body)-partialHead
			}
			err = link.Send(mpi.Envelope{From: env.To, To: mpi.Coordinator, Step: env.Step, Frame: encodePartialFrame(sc.buf, perr), Size: size})
		case cmdPEval, cmdIncEval:
			// The deadline gate: computing past an expired run context would
			// burn CPU the coordinator has already written off. Reply with the
			// context error so the coordinator fails the run cleanly even if
			// its own clock has not fired yet.
			var computeNS, applyNS int64
			perr := runCtx.Err()
			if perr == nil {
				computeNS, applyNS, perr = execStep(prog, q, ctx, cmd)
			}
			sc.buf, err = replyWire(link, k, sc.buf, env.To, env.Step, ctx, computeNS, applyNS, perr)
		}
		if err != nil {
			return fmt.Errorf("engine: worker %d: %w", f.Index, err)
		}
	}
}

// replyWire encodes the superstep's reply over buf, sends it and returns buf.
func replyWire[V any](link WorkerLink, k *valueKind[V], buf []byte, w, step int, ctx *Context[V], computeNS, applyNS int64, perr error) ([]byte, error) {
	buf, dataLen := encodeReply(k, buf, workerReply[V]{changes: ctx.flush(), work: ctx.takeWork(), active: ctx.active, err: perr, computeNS: computeNS, applyNS: applyNS})
	return buf, link.Send(mpi.Envelope{From: w, To: mpi.Coordinator, Step: step, Frame: buf, Size: dataLen})
}

// encodePartial appends the worker's post-fixpoint payload for Assemble to
// buf: the program's PartialCodec encoding when it has one, else the default
// — every set node variable as one batch named by dense index, ascending.
func encodePartial[Q, V, R any](prog WireProgram[Q, V, R], buf []byte, q Q, ctx *Context[V]) ([]byte, error) {
	if pc, ok := any(prog).(PartialCodec[Q, V]); ok {
		return pc.EncodePartial(buf, q, ctx)
	}
	n, size := 0, 0
	for i, ok := range ctx.has {
		if ok {
			n++
			size += 8 + ctx.spec.size(ctx.vals[i])
		}
	}
	buf = binary.AppendUvarint(slices.Grow(buf, size), uint64(n))
	for i, ok := range ctx.has {
		if ok {
			buf = ctx.spec.codec.AppendVal(binary.AppendUvarint(buf, uint64(i)), ctx.vals[i])
		}
	}
	return buf, nil
}

// decodePartial is the coordinator-side inverse of encodePartial; the default
// body's indices are checked against the fragment and applied as they are
// read.
func decodePartial[Q, V, R any](prog WireProgram[Q, V, R], k *valueKind[V], q Q, ctx *Context[V], blob []byte) error {
	if pc, ok := any(prog).(PartialCodec[Q, V]); ok {
		return pc.DecodePartial(q, ctx, blob)
	}
	br, err := openBatch(k, blob)
	if err != nil {
		return err
	}
	at := positions{n: ctx.Frag.G.NumVertices(), ascending: true}
	for range br.count {
		key, v, err := br.next()
		if err != nil {
			return err
		}
		i, err := at.check(key)
		if err != nil {
			return err
		}
		ctx.SetLocalAt(i, v)
	}
	return ended("partial-result", blob, br.pos)
}

// wireScratch is what a wire worker's run allocates and the next run of the
// same program reuses, as a runScratch is on the coordinator: the context
// of the fragment the setup frame assigned, the batch every command decodes
// into and the buffer every reply is encoded into.
type wireScratch[V any] struct {
	ctx *Context[V]
	ups []update[V]
	buf []byte
}

// WireServe adapts a WireProgram into the type-erased worker hook registered
// in Entry.Wire: it decodes the query from the setup frame and serves the
// fixpoint on the given fragment until the coordinator releases (or aborts)
// it. Its runs draw their scratch from one pool, so a worker process serving
// run after run reuses the memory of the last.
func WireServe[Q, V, R any](prog WireProgram[Q, V, R]) func(context.Context, WorkerLink, []byte, *partition.Fragment) error {
	spec, bad := declare(prog.Name(), prog.Spec())
	var pool sync.Pool // *wireScratch[V]
	pool.New = func() any { return &wireScratch[V]{ctx: &Context[V]{spec: spec}} }
	return func(ctx context.Context, link WorkerLink, query []byte, f *partition.Fragment) error {
		if bad != nil {
			return bad
		}
		q, err := prog.DecodeQuery(query)
		if err != nil {
			return fmt.Errorf("engine: %s: decoding query: %w", prog.Name(), err)
		}
		sc := pool.Get().(*wireScratch[V])
		sc.ctx.reset(f)
		err = serveWire(ctx, prog, link, q, sc)
		// The fragment lives in the setup frame, which goes back to the
		// transport next: the pooled context keeps neither it nor the
		// program's state reachable.
		sc.ctx.Frag, sc.ctx.State, sc.ctx.Partial = nil, nil, nil
		pool.Put(sc)
		return err
	}
}

// ServeWorker runs one distributed worker session on an established link: it
// reads the setup frame, instantiates the registered program's worker loop
// on the decoded fragment, and serves until the coordinator releases it —
// or aborts it (ErrAborted, a clean outcome for a cancelled run), or the
// propagated run deadline expires. ctx is the worker process's own bound
// (signal handling in cmd/grape-worker); the deadline the coordinator
// shipped in the setup frame is layered on top, so cancellation reaches the
// worker even when the abort frame cannot (coordinator death).
func ServeWorker(ctx context.Context, link WorkerLink) error {
	env, err := link.Recv()
	if err != nil {
		return fmt.Errorf("engine: reading setup frame: %w", err)
	}
	// The fragment is decoded in place: the frame goes back once the run
	// that lives in it has returned.
	defer link.Release(env.Frame)
	name, query, deadlineMicros, f, err := decodeSetup(env.Frame)
	if err != nil {
		return fmt.Errorf("engine: decoding setup frame: %w", err)
	}
	if deadlineMicros > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMicro(deadlineMicros))
		defer cancel()
		// A worker blocked in link.Recv would never observe the deadline —
		// the serve loop only checks the context between commands — so the
		// deadline also closes the link when the transport supports it,
		// unblocking the read. This is what makes the shipped deadline bind
		// even when the coordinator netsplits or wedges instead of dying
		// cleanly (a dead coordinator already breaks the link on its own).
		if c, ok := link.(interface{ Close() error }); ok {
			defer context.AfterFunc(ctx, func() { c.Close() })()
		}
	}
	e, err := Lookup(name)
	if err != nil {
		return err
	}
	if e.Wire == nil {
		//grapevet:keep ErrNoWireSupport is a setup rejection callers match with errors.Is, not a link fault
		return fmt.Errorf("engine: %s: %w", name, ErrNoWireSupport)
	}
	err = e.Wire(ctx, link, query, f)
	if err != nil && ctx.Err() != nil && !errors.Is(err, ErrAborted) {
		// the deadline (or the process context) fired and tore the link
		// down; surface the bound, not the resulting read error
		//grapevet:keep the run bound firing is the engine's own outcome, not a link fault to classify
		return fmt.Errorf("engine: worker run cut short: %w", ctx.Err())
	}
	return err
}
