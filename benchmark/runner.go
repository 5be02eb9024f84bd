package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// opRec is the outcome of one op of a pass.
type opRec struct {
	kind    int     // index into the workload's kinds
	ms      float64 // latency, clock stopped before the answer is digested
	ok      bool    // answered, not refused, digest as expected
	allocMB float64 // heap allocated during the op (single-caller traced passes only)
	commKB  float64 // Stats.Bytes of the engine runs the op executed
}

// passResult is everything one pass of a workload measured. Passes of one
// invocation are identical replicas, so the exact counters must agree
// between them (see checkDeterminism).
type passResult struct {
	traced  bool
	setupS  float64 // system set-up incl. warm-up; generation and ground truth excluded
	wallS   float64 // wall time of the op script
	ops     []opRec
	allocMB float64 // heap allocated by the whole process over the script
	liveMB  float64 // live heap after the script, system state still referenced

	// Exact counters over the script's engine runs.
	commBytes, supersteps, msgs int64

	layers map[string]float64 // per-layer metrics this pass could measure (traced passes)
	spans  []span

	e2e map[string]float64 // endToEnd's result, computed once
}

func (p *passResult) correct() int {
	n := 0
	for _, o := range p.ops {
		if o.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies of the correct ops, optionally of one kind
// (kind < 0 selects all): failed ops are excluded from latency.
func (p *passResult) latencies(kind int) []float64 {
	var xs []float64
	for _, o := range p.ops {
		if o.ok && (kind < 0 || o.kind == kind) {
			xs = append(xs, o.ms)
		}
	}
	return xs
}

// endToEnd computes the pass's end-to-end metrics by name.
func (p *passResult) endToEnd() map[string]float64 {
	if p.e2e != nil {
		return p.e2e
	}
	lat := p.latencies(-1)
	p.e2e = map[string]float64{
		"setup_s":         p.setupS,
		"ops_per_s":       ratio(float64(p.correct()), p.wallS),
		"op_p50_ms":       percentile(lat, 0.5),
		"op_p90_ms":       percentile(lat, 0.9),
		"alloc_mb_per_op": ratio(p.allocMB, float64(len(p.ops))),
		"live_heap_mb":    p.liveMB,
	}
	return p.e2e
}

// workload is one planned workload: datasets generated, ground truth
// computed, op script fixed. pass runs one replica — fresh set-up, warm-up,
// script — and is called several times per invocation.
type workload interface {
	name() string
	// pass runs one replica. first marks the first pass of its kind (traced
	// or not) in this invocation: one-off measurements that need not repeat
	// (recovery check, codec replay, sequential baseline) hang off it.
	pass(ctx context.Context, traced, first bool) (*passResult, error)
}

// heapMB reads one runtime/metrics byte counter in MB.
func heapMB(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// allocatedMB reads the process's cumulative heap allocation.
func allocatedMB() float64 { return heapMB("/gc/heap/allocs:bytes") }

// liveHeapMB collects twice (the second cycle frees what finalizers and
// sync.Pool victims held through the first) and reads the bytes of live
// heap objects.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return heapMB("/memory/classes/heap/objects:bytes")
}

// timeScript runs the op script and fills the pass's wall time and
// whole-process allocation.
func (p *passResult) timeScript(script func()) {
	a0 := allocatedMB()
	t0 := time.Now()
	script()
	p.wallS = time.Since(t0).Seconds()
	p.allocMB = allocatedMB() - a0
}

// summary is what an invocation reports for one workload.
type summary struct {
	Workload   string                  `json:"workload"`
	OpsPerPass int                     `json:"n"`
	Passes     int                     `json:"passes"`        // untraced: the end-to-end medians come from these
	Traced     int                     `json:"traced_passes"` // the per-layer medians come from these
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	EndToEnd   map[string]metricReport `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricReport `json:"per_layer,omitempty"`
	// Exact holds the counters that must repeat exactly between passes and
	// between runs of the same code.
	Exact map[string]float64 `json:"exact"`
}

// metricReport is one reported metric: the median over the passes, its
// unit, and the pass spread (third − first quartile) ÷ median.
type metricReport struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
}

// checkDeterminism is the determinism guard: the passes of one invocation
// are identical replicas, so they must agree exactly on shipped bytes,
// supersteps, messages and op counts. A mismatch is an error naming the
// workload — never a median.
func checkDeterminism(name string, passes []*passResult) error {
	for i, p := range passes[1:] {
		q := passes[0]
		if p.commBytes != q.commBytes || p.supersteps != q.supersteps || p.msgs != q.msgs || len(p.ops) != len(q.ops) {
			return fmt.Errorf("workload %s is not deterministic: pass 0 shipped %d bytes in %d messages over %d supersteps and %d ops, pass %d shipped %d bytes in %d messages over %d supersteps and %d ops",
				name, q.commBytes, q.msgs, q.supersteps, len(q.ops), i+1, p.commBytes, p.msgs, p.supersteps, len(p.ops))
		}
	}
	return nil
}

// summarize folds the passes of one workload into its report: end-to-end
// metrics from the untraced passes, per-layer metrics from the traced ones.
func summarize(name string, passes []*passResult) (*summary, error) {
	if len(passes) == 0 {
		return nil, fmt.Errorf("workload %s: no passes ran", name)
	}
	if err := checkDeterminism(name, passes); err != nil {
		return nil, err
	}
	var untraced, traced []*passResult
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	s := &summary{Workload: name, OpsPerPass: len(passes[0].ops), Passes: len(untraced), Traced: len(traced)}
	for _, p := range passes {
		s.Attempted += len(p.ops)
		s.Failed += len(p.ops) - p.correct()
	}
	nops := float64(len(passes[0].ops))
	s.Exact = map[string]float64{
		"ops":                      nops,
		"engine.comm_kb_per_op":    ratio(float64(passes[0].commBytes)/1e3, nops),
		"engine.supersteps_per_op": ratio(float64(passes[0].supersteps), nops),
		"engine.msgs_per_op":       ratio(float64(passes[0].msgs), nops),
	}
	// column collects one end-to-end metric over a set of passes.
	column := func(passes []*passResult, name string) []float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p.endToEnd()[name]
		}
		return xs
	}
	if len(untraced) > 0 {
		s.EndToEnd = make(map[string]metricReport, len(endToEndDefs))
		for _, d := range endToEndDefs {
			xs := column(untraced, d.Name)
			s.EndToEnd[d.Name] = metricReport{Value: finite(median(xs)), Unit: d.Unit, Spread: finite(spread(xs))}
		}
	}
	if len(traced) > 0 {
		// Metrics of the invocation as a whole: the exact counters, the
		// failure share, and tracing overhead — traced throughput against
		// the untraced passes of the same invocation.
		whole := map[string]float64{
			"trace.overhead_ratio": ratio(median(column(traced, "ops_per_s")), median(column(untraced, "ops_per_s"))),
			"harness.fail_ratio":   ratio(float64(s.Failed), float64(s.Attempted)),
		}
		for k, v := range s.Exact {
			whole[k] = v
		}
		s.PerLayer = make(map[string]metricReport, len(perLayerDefs))
		for _, d := range perLayerDefs {
			if v, ok := whole[d.Name]; ok {
				s.PerLayer[d.Name] = metricReport{Value: finite(v), Unit: d.Unit}
				continue
			}
			var xs []float64
			for _, p := range traced {
				if v, ok := p.layers[d.Name]; ok {
					xs = append(xs, v)
				}
			}
			// A layer the workload does not exercise reports 0.
			s.PerLayer[d.Name] = metricReport{Value: finite(median(xs)), Unit: d.Unit, Spread: finite(spread(xs))}
		}
	}
	return s, nil
}
