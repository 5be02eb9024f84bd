package main

import (
	"encoding/json"
	"os"
	"time"

	"grape/internal/trace"
)

// span is one timed interval of a traced pass: a call into a layer, or the
// op that caused it. Spans of one op share its op id; parent is the index of
// the enclosing span in the tracer (-1 for an op).
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int
	lane       int // caller (client) the span ran on; Chrome trace tid
}

// tracer keeps the spans of one caller in memory. A nil tracer records
// nothing, which is how untraced passes run the same code. Not safe for
// concurrent use: every client of a serve workload owns one.
type tracer struct {
	lane  int
	spans []span
}

// begin opens a span and returns its index, -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent, op: op, lane: t.lane})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = time.Now()
	}
}

// add records an interval measured elsewhere (the engine's own recorder).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op, lane: t.lane})
	return len(t.spans) - 1
}

// Span names. The op span is the root of every op; the rest are the layer
// calls and the engine's step phases.
const (
	spanOp          = "op"
	spanAssign      = "partition.assign"
	spanBuild       = "partition.build"
	spanSessionOpen = "transport.session_open"
	spanSessionEnd  = "transport.session_close"
	spanRun         = "engine.run"
	spanStep        = "engine.step"
	spanCompute     = "engine.compute"
	spanApply       = "engine.apply"
	spanBarrierWait = "engine.barrier_wait"
	spanFoldRoute   = "engine.fold_route"
	spanUpdate      = "server.update"
	spanHit         = "server.hit"
	spanMiss        = "server.miss"
)

// addRun hangs an engine run's flight-recorder trace under the run span
// parent: one step span per superstep, split into the slowest worker's
// compute and apply, the rest of Start..Barrier (waiting for the barrier
// beyond that worker: message delivery and scheduling), and Barrier..End
// (coordinator fold + route). The compute/apply intervals are laid end to
// end from the step's start — the recorder knows their lengths, not when
// the worker began — so within a step only the lengths are meaningful.
// It returns max ÷ median worker compute per step, for engine.worker_skew.
func (t *tracer) addRun(run *trace.Run, parent, op int) (skews []float64) {
	if t == nil || run == nil {
		return nil
	}
	for _, st := range run.Steps {
		step := t.add(spanStep, st.Start, st.End, parent, op)
		var slow trace.WorkerTiming
		computes := make([]float64, 0, len(st.Workers))
		for _, w := range st.Workers {
			if w.ComputeNS+w.ApplyNS > slow.ComputeNS+slow.ApplyNS {
				slow = w
			}
			computes = append(computes, float64(w.ComputeNS))
		}
		if m := median(computes); len(computes) > 1 && m > 0 {
			skews = append(skews, percentile(computes, 1)/m)
		}
		barrier := st.Barrier
		if barrier.Before(st.Start) || barrier.After(st.End) {
			barrier = st.End // a step cut short never reached its barrier
		}
		computeEnd := st.Start.Add(time.Duration(slow.ComputeNS))
		applyEnd := computeEnd.Add(time.Duration(slow.ApplyNS))
		if applyEnd.After(barrier) { // clocks of two goroutines; keep children inside the parent
			applyEnd = barrier
			if computeEnd.After(barrier) {
				computeEnd = barrier
			}
		}
		t.add(spanCompute, st.Start, computeEnd, step, op)
		t.add(spanApply, computeEnd, applyEnd, step, op)
		t.add(spanBarrierWait, applyEnd, barrier, step, op)
		t.add(spanFoldRoute, barrier, st.End, step, op)
	}
	return skews
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part its direct children cover. Children of one
// parent never overlap here (a caller makes its layer calls one after the
// other), so the children's durations simply add.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if d := s.end.Sub(s.start) - child[i]; d > 0 {
			self[s.name] += d
		}
	}
	return self
}

// coverage is the share of op wall time the spans under the ops account
// for: 1 − Σ op self time ÷ Σ op duration.
func coverage(spans []span) float64 {
	return 1 - ratio(selfTimes(spans)[spanOp].Seconds(), totalTimes(spans)[spanOp].Seconds())
}

// totalTimes returns, per span name, the summed duration of its spans.
func totalTimes(spans []span) map[string]time.Duration {
	tot := make(map[string]time.Duration)
	for _, s := range spans {
		tot[s.name] += s.end.Sub(s.start)
	}
	return tot
}

// mergeSpans concatenates the spans of several tracers, re-basing parent
// indices.
func mergeSpans(ts []*tracer) []span {
	var all []span
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := len(all)
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeChromeTrace writes spans in the Chrome trace-event format Perfetto
// and chrome://tracing load: one complete ("X") event per span, one process
// per workload, one thread per caller.
func writeChromeTrace(path string, byWorkload map[string][]span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	var t0 time.Time
	for _, spans := range byWorkload {
		for _, s := range spans {
			if t0.IsZero() || s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	for pid, name := range sortedKeys(byWorkload) {
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid + 1, Args: map[string]any{"name": name}})
		for i, s := range byWorkload[name] {
			events = append(events, event{
				Name: s.name, Cat: name, Ph: "X", PID: pid + 1, TID: s.lane + 1,
				TS:   float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
				Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
