package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome trace-event export. The format is the JSON Array / Object variant
// documented by the Chromium project and loadable in Perfetto and
// chrome://tracing. Mapping:
//
//	pid        one per run (1-based index)
//	tid 0      coordinator: run span, superstep spans, compute/comm/fold
//	           phase spans, instant events
//	tid w+1    worker w: per-superstep apply + compute spans from its
//	           self-reported timings, clamped into the superstep span so
//	           nesting always holds
//
// Timestamps are microseconds relative to the earliest run start in the
// file, durations in microseconds.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes one or more runs as a single Chrome trace-event JSON
// object. Nil runs are skipped.
func WriteChrome(w io.Writer, runs ...*Run) error {
	var events []chromeEvent
	var base time.Time
	for _, run := range runs {
		if run == nil || run.Start.IsZero() {
			continue
		}
		if base.IsZero() || run.Start.Before(base) {
			base = run.Start
		}
	}
	us := func(t time.Time) int64 {
		if t.IsZero() {
			return 0
		}
		return t.Sub(base).Microseconds()
	}
	pid := 0
	for _, run := range runs {
		if run == nil || run.Start.IsZero() {
			continue
		}
		pid++
		events = append(events, runEvents(run, pid, us)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func runEvents(run *Run, pid int, us func(t time.Time) int64) []chromeEvent {
	var ev []chromeEvent
	meta := func(name, value string, tid int) {
		ev = append(ev, chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": value}})
	}
	meta("process_name", fmt.Sprintf("%s: %s (%s, %d workers)", run.ID, run.Class, run.Substrate, run.Workers), 0)
	meta("thread_name", "coordinator", 0)
	for w := 0; w < run.Workers; w++ {
		meta("thread_name", fmt.Sprintf("worker %d", w), w+1)
	}

	end := run.End
	if end.IsZero() {
		end = run.Start
		if n := len(run.Steps); n > 0 && run.Steps[n-1].End.After(end) {
			end = run.Steps[n-1].End
		}
	}
	ev = append(ev, chromeEvent{
		Name: "run " + run.Class, Ph: "X", Pid: pid, Tid: 0,
		Ts: us(run.Start), Dur: max64(us(end)-us(run.Start), 0),
		Args: map[string]any{"id": run.ID, "substrate": run.Substrate, "workers": run.Workers},
	})

	for i := range run.Steps {
		s := &run.Steps[i]
		start, barrier, sEnd := us(s.Start), us(s.Barrier), us(s.End)
		if barrier < start {
			barrier = start
		}
		if sEnd < barrier {
			sEnd = barrier
		}
		ev = append(ev, chromeEvent{
			Name: fmt.Sprintf("superstep %d", s.Step), Ph: "X", Pid: pid, Tid: 0,
			Ts: start, Dur: sEnd - start,
			Args: map[string]any{"scheduled": s.Sched, "worker_ns_sum": s.WorkerNSSum, "procs": s.Procs},
		})
		// Coordinator-view phases: compute ends at the slowest worker's
		// self-reported busy time (clamped to the barrier), the remainder
		// up to the barrier is comm (replies in flight / coordinator
		// draining), and barrier..end is the fold + routing.
		var maxBusy int64
		for _, wt := range s.Workers {
			if busy := (wt.ComputeNS + wt.ApplyNS) / 1e3; busy > maxBusy {
				maxBusy = busy
			}
		}
		computeEnd := start + maxBusy
		if computeEnd > barrier {
			computeEnd = barrier
		}
		ev = append(ev,
			chromeEvent{Name: "compute", Ph: "X", Pid: pid, Tid: 0, Ts: start, Dur: computeEnd - start},
			chromeEvent{Name: "comm", Ph: "X", Pid: pid, Tid: 0, Ts: computeEnd, Dur: barrier - computeEnd},
			chromeEvent{Name: "fold", Ph: "X", Pid: pid, Tid: 0, Ts: barrier, Dur: sEnd - barrier},
		)
		// Per-worker spans: apply then compute from the step start, clamped
		// into [start, end] so they always nest inside the superstep span.
		for _, wt := range s.Workers {
			applyUS, computeUS := wt.ApplyNS/1e3, wt.ComputeNS/1e3
			aEnd := clamp64(start+applyUS, start, sEnd)
			cEnd := clamp64(aEnd+computeUS, aEnd, sEnd)
			if applyUS > 0 {
				ev = append(ev, chromeEvent{Name: "apply", Ph: "X", Pid: pid, Tid: wt.Worker + 1,
					Ts: start, Dur: aEnd - start, Args: map[string]any{"step": s.Step}})
			}
			ev = append(ev, chromeEvent{Name: "compute", Ph: "X", Pid: pid, Tid: wt.Worker + 1,
				Ts: aEnd, Dur: cEnd - aEnd, Args: map[string]any{"step": s.Step}})
		}
	}

	for _, e := range run.Events {
		ev = append(ev, chromeEvent{Name: e.Kind, Ph: "i", Pid: pid, Tid: 0,
			Ts: us(e.Time), S: "p", Args: map[string]any{"detail": e.Detail}})
	}
	return ev
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
