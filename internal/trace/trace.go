// Package trace is the flight recorder: a stdlib-only structured trace of a
// single engine run. A Recorder captures one run-level span (run ID, query
// class, substrate, worker count), per-superstep child spans split into
// compute/comm/fold phases, per-worker compute/apply timings shipped back in
// superstep replies, and discrete events (checkpoints, recoveries, session
// updates, cache hits). Traces export to Chrome trace-event JSON
// (Perfetto-loadable, see chrome.go) and are retained in-memory by a Flight
// ring inside grape-serve (flight.go).
//
// The recorder travels on the context (WithRecorder / FromContext), never as
// a struct field — grapevet's ctxfirst analyzer enforces that. Every method
// is safe on a nil *Recorder so the disabled path costs nothing: the engine
// calls rec.BeginStep(...) unconditionally and a nil receiver returns
// immediately without allocating.
package trace

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Run is the completed (or in-flight) trace of one engine run.
type Run struct {
	ID        string    `json:"id"`
	Class     string    `json:"class"`
	Substrate string    `json:"substrate"`
	Workers   int       `json:"workers"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	Steps     []Step    `json:"steps"`
	Events    []Event   `json:"events,omitempty"`
}

// Step is one superstep span. Start..Barrier covers worker compute plus
// message delivery (the coordinator is draining replies); Barrier..End is the
// coordinator-side fold and routing of the next superstep's updates.
//
// WorkerNSSum and Procs say what the wait for the barrier was: bus workers
// share Procs cores, so when Barrier−Start is about WorkerNSSum ÷ Procs the
// cores were busy with other fragments the whole time, and only what exceeds
// that was delivery, scheduling or idling. (Wire workers have cores of their
// own; there the slowest worker is the floor. Worker times are wall clocks: one
// the runtime parks mid-step — garbage collection, a step past the 10 ms time
// slice — keeps counting, so the quotient is an upper bound on busy cores.)
type Step struct {
	Step        int            `json:"step"`
	Sched       int            `json:"scheduled"` // workers dispatched this superstep
	Start       time.Time      `json:"start"`
	Barrier     time.Time      `json:"barrier"`       // last worker reply accepted
	End         time.Time      `json:"end"`           // fold + route done
	WorkerNSSum int64          `json:"worker_ns_sum"` // Σ over Workers of compute + apply
	Procs       int            `json:"procs"`         // GOMAXPROCS of the recording process
	Workers     []WorkerTiming `json:"workers,omitempty"`
}

// WorkerTiming is one worker's self-reported phase split for a superstep,
// piggybacked on its reply frame (wire) or reply struct (bus).
type WorkerTiming struct {
	Worker    int   `json:"worker"`
	ComputeNS int64 `json:"compute_ns"` // PEval / IncEval body
	ApplyNS   int64 `json:"apply_ns"`   // applying inbound updates
}

// Event is a discrete point-in-time occurrence attached to a run (checkpoint
// written, recovery performed, session updated) or to the server as a whole
// (cache hit).
type Event struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// Recorder accumulates one Run. Recorders are pooled: NewRecorder draws from
// a package-level sync.Pool and Release returns the reset value, so span
// buffers are recycled across served queries. All methods are nil-safe.
type Recorder struct {
	mu   sync.Mutex //grapevet:keep zero mutex is ready for reuse; reset must not touch it
	run  Run
	open int // index into run.Steps of the open step, -1 when none
}

var recorderPool = sync.Pool{New: func() any { return &Recorder{open: -1} }}

// NewRecorder returns a pooled recorder primed with the given run ID.
func NewRecorder(id string) *Recorder {
	r := recorderPool.Get().(*Recorder)
	r.run.ID = id
	return r
}

// Release resets the recorder and returns it to the pool. The caller must
// not use r (or any un-copied view of its data) afterwards; take a Snapshot
// first if the trace should outlive the recorder.
func (r *Recorder) Release() {
	if r == nil {
		return
	}
	r.reset()
	recorderPool.Put(r)
}

// reset clears per-run state while keeping the span buffers' backing arrays.
func (r *Recorder) reset() {
	r.run = Run{Steps: r.run.Steps[:0], Events: r.run.Events[:0]}
	r.open = -1
}

// ID reports the run ID ("" on a nil recorder).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.run.ID
}

// BeginRun opens the run-level span. The engine calls it once per fixpoint.
func (r *Recorder) BeginRun(class, substrate string, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run.Class = class
	r.run.Substrate = substrate
	r.run.Workers = workers
	if r.run.Start.IsZero() {
		r.run.Start = time.Now()
	}
}

// EndRun closes the run-level span (and any step still open, e.g. when the
// run errored mid-superstep). Idempotent.
func (r *Recorder) EndRun() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if i := r.open; i >= 0 {
		s := &r.run.Steps[i]
		if s.Barrier.IsZero() {
			s.Barrier = now
		}
		s.End = now
		r.open = -1
	}
	if r.run.End.IsZero() {
		r.run.End = now
	}
}

// BeginStep opens a superstep span just before commands are dispatched.
// sched is the number of workers scheduled this superstep.
func (r *Recorder) BeginStep(step, sched int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run.Steps = append(r.run.Steps, Step{Step: step, Sched: sched, Start: time.Now(), Procs: runtime.GOMAXPROCS(0)})
	r.open = len(r.run.Steps) - 1
}

// BarrierDone marks the superstep barrier: every expected worker reply has
// been drained. Compute/comm end here; the coordinator fold begins.
func (r *Recorder) BarrierDone(step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.openStep(step); s != nil {
		s.Barrier = time.Now()
	}
}

// WorkerTiming records one worker's self-reported phase split for a step.
func (r *Recorder) WorkerTiming(step, worker int, computeNS, applyNS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.openStep(step); s != nil {
		s.Workers = append(s.Workers, WorkerTiming{Worker: worker, ComputeNS: computeNS, ApplyNS: applyNS})
		s.WorkerNSSum += computeNS + applyNS
	}
}

// EndStep closes a superstep span after the fold and next-step routing.
func (r *Recorder) EndStep(step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.openStep(step); s != nil {
		now := time.Now()
		if s.Barrier.IsZero() {
			s.Barrier = now
		}
		s.End = now
		r.open = -1
	}
}

// openStep returns the currently open step if it matches, else nil. Callers
// hold r.mu.
func (r *Recorder) openStep(step int) *Step {
	if r.open < 0 || r.open >= len(r.run.Steps) {
		return nil
	}
	s := &r.run.Steps[r.open]
	if s.Step != step {
		return nil
	}
	return s
}

// Event appends a discrete event (checkpoint, recovery, session-update,
// cache-hit, error). Unlike the span methods, callers on hot paths should
// guard with `if rec != nil` so the detail string is never built when
// tracing is off.
func (r *Recorder) Event(kind, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run.Events = append(r.run.Events, Event{Time: time.Now(), Kind: kind, Detail: detail})
}

// Snapshot deep-copies the accumulated run, safe to retain after Release.
func (r *Recorder) Snapshot() *Run {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.run
	out.Steps = make([]Step, len(r.run.Steps))
	copy(out.Steps, r.run.Steps)
	for i := range out.Steps {
		if w := out.Steps[i].Workers; w != nil {
			out.Steps[i].Workers = append([]WorkerTiming(nil), w...)
		}
	}
	out.Events = append([]Event(nil), r.run.Events...)
	return &out
}

type recorderKey struct{}

// WithRecorder attaches a recorder to the context; the engine run loops pick
// it up with FromContext. A nil rec is fine (tracing stays off).
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// FromContext returns the recorder carried by ctx, or nil when tracing is
// off. The nil result is usable directly: all Recorder methods are nil-safe.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
