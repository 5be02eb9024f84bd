package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
)

// This file is the benchmark's contract: the workloads, the metric names
// with unit, direction and regression bound, and the check that
// BENCHMARK.json at the repository root declares exactly them. Later issues
// claim gains by these names only.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer metrics
	// have none.
	Bound *float64 `json:"bound,omitempty"`
}

// manifest mirrors BENCHMARK.json key for key.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// The command the driver runs (with --workload, --seed, --seconds, --trace
// appended) and the directory that holds the benchmark and nothing else.
var (
	benchCommand = []string{"bash", "benchmark/run.sh"}
	benchPaths   = []string{"benchmark"}
)

// runSeconds is how long one driver run measures: passes repeat until their
// op scripts have run this long in total (and at least minPasses times).
// allPasses is the fixed count of untraced passes per workload under -all.
const (
	runSeconds = 10
	minPasses  = 3
	allPasses  = 5
)

// classes are the seven registered query classes, in script order.
var classes = []string{"sssp", "cc", "sim", "subiso", "keyword", "cf", "tricount"}

var workloadDefs = []workloadDef{
	{"oneshot-cold", "1 caller, one cold Entry.Run per op (partition, layout build, fixpoint, Assemble) over sssp, cc, sim: layout build is most of such a run and the message path almost none of it"},
	{"resident-bus", "1 caller, layouts prebuilt, all 7 classes round-robin on the in-process bus: kernels and fold/route do all the work, layout build none, and nothing is serialised"},
	{"resident-wire", "same op script and layouts as resident-bus, every op a loopback socket session with 8 workers: the difference is handshake, fragment shipping, encode, frame and decode"},
	{"serve-hot", "nproc HTTP clients, every op a result-cache hit (4 sssp sources and cc): admission, cache lookup, response encoding and HTTP do all the work, the engine none"},
	{"serve-churn", "durable server, one writer per graph, op = POST /update of 16 edges, a primed hit, a nocache miss: journal fsync, IncEval sessions, epoch invalidation and refreeze sit only here"},
}

func bound(b float64) *float64 { return &b }

// endToEndDefs are what a caller of the system sees. A bound is at least
// three times the widest spread seen between ten runs on ten seeds. The time
// bounds are the largest the driver allows: on the shared 2-vCPU boxes this
// runs on, ten runs spread by 2-10 % of the median between quartiles in a calm
// quarter of an hour and by 15-20 % in a busy one, whatever the program does.
// Allocation is exact to 0.6 % everywhere but on resident-bus, where pooled
// scratch is refilled after whichever collections happen to run (up to 2.7 %
// between runs, 5 % between passes of one run).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"op_p50_ms", "ms", "lower", bound(0.25)},
	{"op_p90_ms", "ms", "lower", bound(0.25)},
	{"alloc_mb_per_op", "MB", "lower", bound(0.09)},
	{"live_heap_mb", "MB", "lower", bound(0.05)},
}

// perLayerDefs are the metrics of single layers; module names are the
// layers. README.md says which end-to-end metric on which workload each is
// expected to move.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{Name: "partition.assign_ms", Unit: "ms", Better: "lower"},
		{Name: "partition.build_ms", Unit: "ms", Better: "lower"},
		{Name: "partition.build_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "partition.layout_live_mb", Unit: "MB", Better: "lower"},
		{Name: "partition.cut_edge_ratio", Unit: "ratio", Better: "lower"},
		{Name: "partition.frag_encode_ms", Unit: "ms", Better: "lower"},
		{Name: "partition.frag_decode_ms", Unit: "ms", Better: "lower"},
		{Name: "partition.frag_wire_kb", Unit: "KB", Better: "lower"},

		{Name: "engine.fixpoint_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.run_self_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.compute_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.apply_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.barrier_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.fold_route_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.worker_skew", Unit: "ratio", Better: "lower"},
		{Name: "engine.supersteps_per_op", Unit: "count", Better: "lower"},
		{Name: "engine.msgs_per_op", Unit: "count", Better: "lower"},
		{Name: "engine.comm_kb_per_op", Unit: "KB", Better: "lower"},
		{Name: "engine.session_open_ms", Unit: "ms", Better: "lower"},
	}
	for _, c := range classes {
		defs = append(defs,
			metricDef{Name: "queries." + c + ".bus_p50_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "queries." + c + ".wire_p50_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "queries." + c + ".alloc_mb", Unit: "MB", Better: "lower"},
			metricDef{Name: "queries." + c + ".comm_kb", Unit: "KB", Better: "lower"},
			metricDef{Name: "queries." + c + ".seq_ratio", Unit: "ratio", Better: "higher"},
		)
	}
	return append(defs,
		metricDef{Name: "transport.session_open_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "transport.wire_tax_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "transport.wire_kb_per_op", Unit: "KB", Better: "lower"},
		metricDef{Name: "transport.wire_to_bus_bytes_ratio", Unit: "ratio", Better: "lower"},

		metricDef{Name: "server.hit_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.hit_direct_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.http_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.response_kb", Unit: "KB", Better: "lower"},
		metricDef{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.miss_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.update_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "server.rejected_ratio", Unit: "ratio", Better: "lower"},

		metricDef{Name: "store.snapshot_write_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "store.snapshot_bytes_per_edge", Unit: "B", Better: "lower"},
		metricDef{Name: "store.journal_bytes_per_update", Unit: "B", Better: "lower"},
		metricDef{Name: "store.recover_ms", Unit: "ms", Better: "lower"},

		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "ledger.coverage_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "harness.fail_ratio", Unit: "ratio", Better: "lower"},
	)
}()

// wantManifest is the BENCHMARK.json this harness implements.
func wantManifest() manifest {
	return manifest{
		Command: benchCommand, Paths: benchPaths, RunSeconds: runSeconds,
		Workloads: workloadDefs, EndToEnd: endToEndDefs, PerLayer: perLayerDefs,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validateContract checks m against the limits the benchmark driver refuses
// a manifest for, before a single run.
func validateContract(m manifest) error {
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is over 200 characters, absolute, or leaves the repo", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative path of letters, digits, _ . - /", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds is %d, want 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	metric := func(d metricDef, endToEnd bool) error {
		if err := name(d.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q, want lower or higher", d.Name, d.Better)
		}
		if endToEnd != (d.Bound != nil) {
			return fmt.Errorf("metric %s: end-to-end metrics have a bound, per-layer metrics have none", d.Name)
		}
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %g is outside (0, 0.25]", d.Name, *d.Bound)
		}
		return nil
	}
	var setup *metricDef
	for i, d := range m.EndToEnd {
		if err := metric(d, true); err != nil {
			return err
		}
		if d.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		return fmt.Errorf("end_to_end needs setup_s with unit s and better lower")
	}
	for _, d := range m.EndToEnd {
		if *d.Bound > *setup.Bound {
			return fmt.Errorf("metric %s has a larger bound than setup_s", d.Name)
		}
	}
	for _, d := range m.PerLayer {
		if err := metric(d, false); err != nil {
			return err
		}
	}
	return nil
}

// checkManifest is `benchmark -check`: the manifest file must parse with
// exactly the contract's keys, stay within the contract's limits, declare
// exactly the names and units this harness prints, list only the
// benchmark's own directory, and name the command README.md documents.
func checkManifest(manifestPath, readmePath string) error {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	if len(data) > 64<<10 {
		return fmt.Errorf("%s is %d bytes, over 64 KiB", manifestPath, len(data))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	if err := validateContract(m); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	want := wantManifest()
	if !reflect.DeepEqual(m.Paths, want.Paths) || !reflect.DeepEqual(m.Command, want.Command) {
		return fmt.Errorf("%s: command %q over paths %q, the harness is %q over %q", manifestPath, m.Command, m.Paths, want.Command, want.Paths)
	}
	if m.RunSeconds != want.RunSeconds {
		return fmt.Errorf("%s: run_seconds %d, the harness measures %d", manifestPath, m.RunSeconds, want.RunSeconds)
	}
	if !reflect.DeepEqual(m.Workloads, want.Workloads) {
		return fmt.Errorf("%s: workloads differ from the harness's: %s", manifestPath, firstDiff(m.Workloads, want.Workloads))
	}
	if !reflect.DeepEqual(m.EndToEnd, want.EndToEnd) {
		return fmt.Errorf("%s: end_to_end differs from what a run prints: %s", manifestPath, firstDiff(m.EndToEnd, want.EndToEnd))
	}
	if !reflect.DeepEqual(m.PerLayer, want.PerLayer) {
		return fmt.Errorf("%s: per_layer differs from what a run prints: %s", manifestPath, firstDiff(m.PerLayer, want.PerLayer))
	}
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return err
	}
	if cmd := strings.Join(m.Command, " "); !bytes.Contains(readme, []byte(cmd)) {
		return fmt.Errorf("%s does not document the declared command %q", readmePath, cmd)
	}
	return nil
}

// firstDiff names the first position at which two declared lists differ.
func firstDiff[T any](got, want []T) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			return fmt.Sprintf("entry %d is %s, want %s", i, g, w)
		}
	}
	return fmt.Sprintf("%d entries, want %d", len(got), len(want))
}
