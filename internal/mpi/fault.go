package mpi

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultTransport wraps a Transport and injects worker failures at exact
// superstep boundaries, so recovery tests and benches are deterministic:
// "worker w dies at superstep k" is a plan, not a race. Three shapes cover
// the interesting interleavings of a real crash:
//
//   - Drop: the command frame to the worker is lost and the worker is
//     declared dead — the worker died *before* computing the superstep.
//   - Sever: the worker's reply frame is eaten and the worker is declared
//     dead — it died *after* computing, with its reply in flight.
//   - Delay: the worker's reply is held for Delay before delivery — a
//     straggler, not a death; nothing is injected and no recovery fires.
//
// Each fault fires at most once, on the first matching frame with
// Step >= the fault's Step. Control frames (Step 0: setup, stop, abort,
// assemble, adopt) never match, so recovery traffic and run teardown flow
// even through a transport with unconsumed faults. A dropped command is
// still metered — from the coordinator's perspective it was sent — keeping
// the byte accounting of a faulted run identical to a failure-free one.
//
// The wrapper only intercepts the coordinator's side (Send to workers, Recv
// from workers); on the in-process bus the worker goroutines keep their
// direct bus handles, mirroring how a wire fault hits the coordinator's view
// of the link, not the remote process's code.
type FaultTransport struct {
	inner Transport

	mu       sync.Mutex
	faults   []Fault
	fired    int
	injected []Envelope
}

// FaultKind selects the failure shape of a Fault.
type FaultKind int

const (
	// Drop loses the command to the worker and declares the worker dead.
	Drop FaultKind = iota
	// Sever eats the worker's reply and declares the worker dead.
	Sever
	// Delay holds the worker's reply for Fault.Delay, then delivers it.
	Delay
)

func (k FaultKind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Sever:
		return "sever"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("faultkind(%d)", int(k))
}

// Fault is one planned failure: Kind strikes Worker at the first superstep
// >= Step. Step must be >= 1 (superstep 1 is PEval); control frames carry
// step 0 and are never faulted.
type Fault struct {
	Step   int
	Worker int
	Kind   FaultKind
	Delay  time.Duration
}

// NewFaultTransport wraps inner with the given fault plan.
func NewFaultTransport(inner Transport, faults ...Fault) *FaultTransport {
	for _, f := range faults {
		if f.Step < 1 {
			panic(fmt.Sprintf("mpi: fault step %d: faults strike supersteps, which start at 1", f.Step))
		}
	}
	return &FaultTransport{inner: inner, faults: faults}
}

// Plan derives a deterministic single-fault plan from a seed: kind, victim
// and superstep are pseudo-random but reproducible, which is what the fault
// fuzz harness feeds the engine. steps[w] lists the supersteps at which worker
// w gets a command in a failure-free run of the same schedule; the victim is
// drawn among the workers that get one and the step among its supersteps, so
// the fault always finds a frame to strike. Plan panics if no worker gets a
// command.
func Plan(seed int64, steps [][]int) []Fault {
	var victims []int
	for w, s := range steps {
		if len(s) > 0 {
			victims = append(victims, w)
		}
	}
	if len(victims) == 0 {
		panic("mpi: fault plan: no worker gets a command")
	}
	rng := rand.New(rand.NewSource(seed))
	w := victims[rng.Intn(len(victims))]
	f := Fault{
		Step:   steps[w][rng.Intn(len(steps[w]))],
		Worker: w,
		Kind:   FaultKind(rng.Intn(3)),
	}
	if f.Kind == Delay {
		f.Delay = time.Duration(1+rng.Intn(10)) * time.Millisecond
	}
	return []Fault{f}
}

var _ Transport = (*FaultTransport)(nil)
var _ Reassigner = (*FaultTransport)(nil)

// Workers returns the inner transport's worker count.
func (f *FaultTransport) Workers() int { return f.inner.Workers() }

// Wire reports the inner transport's substrate.
func (f *FaultTransport) Wire() bool { return f.inner.Wire() }

// Messages returns the inner transport's data-message count.
func (f *FaultTransport) Messages() int64 { return f.inner.Messages() }

// Bytes returns the inner transport's data-byte count.
func (f *FaultTransport) Bytes() int64 { return f.inner.Bytes() }

// Release hands the frame back to the inner transport.
func (f *FaultTransport) Release(frame []byte) { f.inner.Release(frame) }

// AddTraffic meters through to the inner transport.
func (f *FaultTransport) AddTraffic(msgs, bytes int64) { f.inner.AddTraffic(msgs, bytes) }

// Fired returns how many planned faults have struck so far.
func (f *FaultTransport) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// take consumes the first unfired fault matching kind/worker/step, if any.
func (f *FaultTransport) take(kind FaultKind, worker, step int) (Fault, bool) {
	if step < 1 {
		return Fault{}, false
	}
	for i, ft := range f.faults {
		if ft.Kind == kind && ft.Worker == worker && step >= ft.Step {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
			f.fired++
			return ft, true
		}
	}
	return Fault{}, false
}

// Send forwards e unless a Drop fault strikes the destination worker at this
// superstep: the frame is lost (but still metered — the coordinator did send
// it) and a worker-fatal envelope is queued for the next Recv.
func (f *FaultTransport) Send(e Envelope) {
	if e.To >= 0 && e.Step >= 1 {
		f.mu.Lock()
		if ft, ok := f.take(Drop, e.To, e.Step); ok {
			if e.Size > 0 {
				f.inner.AddTraffic(1, int64(e.Size))
			}
			f.injected = append(f.injected, Envelope{
				From:    e.To,
				To:      Coordinator,
				Payload: WorkerFatal(e.To, fmt.Errorf("%w: command dropped at superstep %d", ErrInjectedFault, ft.Step)),
			})
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
	}
	f.inner.Send(e)
}

// Recv drains injected failures first, then forwards to the inner transport.
// A Sever fault replaces the worker's reply with a worker-fatal envelope and
// un-meters it — recovery regenerates the identical reply, which is metered
// when it flows, so the faulted run's traffic stays equal to a failure-free
// run's. A Delay fault sleeps before delivery.
func (f *FaultTransport) Recv(ctx context.Context, party int) (Envelope, error) {
	f.mu.Lock()
	if party == Coordinator && len(f.injected) > 0 {
		env := f.injected[0]
		f.injected = f.injected[1:]
		f.mu.Unlock()
		return env, nil
	}
	f.mu.Unlock()
	env, err := f.inner.Recv(ctx, party)
	if err != nil || party != Coordinator || env.From < 0 || env.Step < 1 {
		return env, err
	}
	f.mu.Lock()
	if ft, ok := f.take(Sever, env.From, env.Step); ok {
		f.mu.Unlock()
		// The eaten reply was metered when the dying worker sent it, but
		// recovery will regenerate and re-send exactly that reply (the owed
		// reply of the replayed fragment). Un-meter the original so the
		// faulted run's traffic equals the failure-free run's.
		if env.Size > 0 {
			f.inner.AddTraffic(-1, -int64(env.Size))
		}
		return Envelope{
			From:    env.From,
			To:      Coordinator,
			Payload: WorkerFatal(env.From, fmt.Errorf("%w: link severed at superstep %d", ErrInjectedFault, ft.Step)),
		}, nil
	}
	if ft, ok := f.take(Delay, env.From, env.Step); ok {
		f.mu.Unlock()
		time.Sleep(ft.Delay)
		return env, nil
	}
	f.mu.Unlock()
	return env, nil
}

// Reassign delegates to the inner transport when it can reassign (wire
// substrates); on the bus there is nothing to re-route — the recovered
// fragment's replacement listens on the same channel index.
func (f *FaultTransport) Reassign(frag, host int) error {
	if r, ok := f.inner.(Reassigner); ok {
		return r.Reassign(frag, host)
	}
	return nil
}
