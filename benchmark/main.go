// Command benchmark is the repository's benchmark: five named workloads
// over the public functions of the layers (engine, partition, transport,
// server, store, seq, trace), six end-to-end metrics and an outside-in
// per-layer ledger, every answer verified. README.md documents the
// workloads, the metrics and how they are expected to interact;
// BENCHMARK.json at the repository root declares them to the driver.
//
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// measures one workload and prints one JSON object as its last line of
// standard output. Further modes: -all (every workload, result file and
// spans for Perfetto), -compare (classify two result files), -check
// (validate BENCHMARK.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// logf writes a diagnostic to standard error; standard output carries only
// results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to measure (one of BENCHMARK.json's)")
		seed         = flag.Int64("seed", 1, "seed of the dataset generators and update streams")
		seconds      = flag.Float64("seconds", runSeconds, "how long to measure: passes repeat until their op scripts ran this long")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
		all          = flag.Bool("all", false, "run every workload (interleaved passes, then a traced pass each) and print every metric")
		out          = flag.String("out", "", "with -all: write the result file here (input of -compare)")
		spansPath    = flag.String("spans", "", "write the traced passes' spans here, in Chrome trace-event format")
		check        = flag.Bool("check", false, "validate BENCHMARK.json against the driver's contract and this harness, then exit")
		compare      = flag.Bool("compare", false, "classify two result files: benchmark -compare old.json new.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	err := func() error {
		if *compare {
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		// Every measuring mode validates the manifest first: a benchmark the
		// driver would refuse must not produce numbers.
		if err := checkManifest("BENCHMARK.json", "benchmark/README.md"); err != nil {
			return fmt.Errorf("-check: %w", err)
		}
		switch {
		case *check:
			fmt.Println("BENCHMARK.json: ok")
			return nil
		case *all:
			return runAll(ctx, *seed, *out, *spansPath)
		case *workloadName != "":
			return runOne(ctx, *workloadName, *seed, *seconds, *traced == 1, *spansPath)
		}
		return fmt.Errorf("nothing to do: give --workload, -all, -check or -compare")
	}()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// plan fixes one workload's cases, ground truth and op script over the
// generated datasets; nothing in it is timed. tmpRoot is where serve-churn
// keeps its durable store.
func plan(ctx context.Context, name string, d *datasets, sc scale, tmpRoot string) (workload, error) {
	switch name {
	case "oneshot-cold":
		return planEngine(ctx, name, modeCold, d, sc)
	case "resident-bus":
		return planEngine(ctx, name, modeBus, d, sc)
	case "resident-wire":
		return planEngine(ctx, name, modeWire, d, sc)
	case "serve-hot":
		return planHot(d, sc)
	case "serve-churn":
		return planChurn(d, sc, tmpRoot)
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scratchDir is the one place the benchmark writes: .bench_build in the
// current directory, which run.sh also builds into.
func scratchDir() (string, error) {
	const dir = ".bench_build"
	return dir, os.MkdirAll(dir, 0o755)
}

func runPass(ctx context.Context, w workload, traced, first bool) (*passResult, error) {
	p, err := w.pass(ctx, traced, first)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name(), err)
	}
	e := p.endToEnd()
	logf("%-13s traced=%-5v setup %.3fs script %.2fs %d/%d ok %.1f ops/s p50 %.2fms p90 %.2fms %.3f MB/op live %.1f MB",
		w.name(), traced, p.setupS, p.wallS, p.correct(), len(p.ops), e["ops_per_s"], e["op_p50_ms"], e["op_p90_ms"], e["alloc_mb_per_op"], p.liveMB)
	return p, nil
}

// runOne is the driver's protocol: one workload, measured for the given
// number of seconds of op script, one JSON object on the last line of
// standard output with exactly the keys correct, attempted, failed, metrics.
func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool, spansPath string) error {
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	t0 := time.Now()
	w, err := plan(ctx, name, generate(seed, fullScale), fullScale, tmp)
	if err != nil {
		return err
	}
	logf("%s: datasets and ground truth took %.2fs", name, time.Since(t0).Seconds())
	var passes []*passResult
	measure := func(traced bool, atLeast int, seconds float64) error {
		n, s := 0, 0.0
		for _, p := range passes {
			if p.traced == traced {
				n, s = n+1, s+p.wallS
			}
		}
		for ; n < atLeast || s < seconds; n++ {
			p, err := runPass(ctx, w, traced, n == 0)
			if err != nil {
				return err
			}
			passes = append(passes, p)
			s += p.wallS
		}
		return nil
	}
	// Untraced passes give the end-to-end metrics, traced ones the per-layer
	// metrics. A traced invocation also runs one untraced pass, the base of
	// trace.overhead_ratio — second, so that it is not the only pass that
	// pays the process's cold start.
	if !traced {
		err = measure(false, minPasses, seconds)
	} else if err = measure(true, 1, 0); err == nil {
		if err = measure(false, 1, 0); err == nil {
			err = measure(true, 2, seconds)
		}
	}
	if err != nil {
		return err
	}
	sum, err := summarize(name, passes)
	if err != nil {
		return err
	}
	report := sum.EndToEnd
	if traced {
		report = sum.PerLayer
		if spansPath != "" {
			if err := writeChromeTrace(spansPath, map[string][]span{name: lastSpans(passes)}); err != nil {
				return err
			}
		}
	}
	printSummary(os.Stderr, sum)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(report))
	for k, m := range report {
		metrics[k] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": sum.Failed == 0, "attempted": sum.Attempted, "failed": sum.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func lastSpans(passes []*passResult) []span {
	for i := len(passes) - 1; i >= 0; i-- {
		if passes[i].traced {
			return passes[i].spans
		}
	}
	return nil
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Env       environment         `json:"env"`
	Workloads map[string]*summary `json:"workloads"`
}

// environment stamps a result file with where it was measured.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func stampEnvironment(seed int64) environment {
	env := environment{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Seed: seed}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runAll is the one command that prints every metric: every workload
// measured as allPasses untraced passes interleaved across workloads
// (A B C D E, A B C D E, …) so drift hits them alike, then one traced pass
// each for the per-layer ledger.
func runAll(ctx context.Context, seed int64, out, spansPath string) error {
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	d := generate(seed, fullScale)
	var ws []workload
	for _, def := range workloadDefs {
		w, err := plan(ctx, def.Name, d, fullScale, tmp)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	results := make(map[string][]*passResult)
	for i := 0; i <= allPasses; i++ {
		for _, w := range ws {
			traced := i == allPasses
			p, err := runPass(ctx, w, traced, i == 0 || traced)
			if err != nil {
				return err
			}
			results[w.name()] = append(results[w.name()], p)
		}
	}
	file := resultFile{Env: stampEnvironment(seed), Workloads: make(map[string]*summary)}
	spans := make(map[string][]span)
	failed := 0
	for _, w := range ws {
		sum, err := summarize(w.name(), results[w.name()])
		if err != nil {
			return err
		}
		file.Workloads[w.name()] = sum
		spans[w.name()] = lastSpans(results[w.name()])
		failed += sum.Failed
		printSummary(os.Stdout, sum)
	}
	for _, name := range []string{"oneshot-cold", "resident-bus"} {
		if c := file.Workloads[name].PerLayer["ledger.coverage_ratio"].Value; c < 0.9 {
			return fmt.Errorf("ledger invariant broken: ledger.coverage_ratio on %s is %.3f, want >= 0.9", name, c)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if spansPath != "" {
		if err := writeChromeTrace(spansPath, spans); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// printSummary prints every metric of one workload by name, with its unit.
func printSummary(f *os.File, s *summary) {
	fmt.Fprintf(f, "%s: n=%d ops/pass, %d untraced + %d traced passes, %d attempted, %d failed\n", s.Workload, s.OpsPerPass, s.Passes, s.Traced, s.Attempted, s.Failed)
	for _, d := range endToEndDefs {
		if m, ok := s.EndToEnd[d.Name]; ok {
			fmt.Fprintf(f, "  %-36s %14.4f %-6s spread %.3f\n", d.Name, m.Value, m.Unit, m.Spread)
		}
	}
	for _, d := range perLayerDefs {
		if m, ok := s.PerLayer[d.Name]; ok {
			fmt.Fprintf(f, "  %-36s %14.4f %-6s spread %.3f\n", d.Name, m.Value, m.Unit, m.Spread)
		}
	}
}
