package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the serving collector,
// written with zero dependencies. The metric family set is fixed:
//
//	grape_queries_total / grape_cache_hits_total / grape_cache_misses_total
//	grape_errors_total / grape_rejected_total / grape_timeouts_total  counters
//	grape_cache_hit_rate / grape_queue_depth / grape_in_flight        gauges
//	grape_runs_total{class=...}                                       counter
//	grape_recoveries_total                                            counter
//	grape_response_bytes_total{kind="hit"|"miss"}                     counter
//	grape_cache_encoded_bytes                                         gauge
//	grape_worker_imbalance{worker=...}                                gauge
//	grape_journal_records{graph=...} / grape_journal_bytes{graph=...} gauges
//	grape_snapshot_epoch{graph=...}                                   gauge
//	grape_compactions_total{graph=...}                                gauge
//	grape_journal_append_failures_total{graph=...}                    gauge
//	grape_recovery_duration_seconds{graph=...}                        gauge
//	grape_recovery_replayed_records{graph=...}                        gauge
//	grape_unusable_snapshots_total                                    counter
//	grape_request_duration_seconds                                    histogram
//
// The histogram re-expresses the power-of-two-microsecond buckets as
// cumulative `le` seconds, the shape Prometheus expects.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes the collector's current state in the Prometheus
// text exposition format. queueDepth and inFlight are the scheduler gauges
// sampled by the caller, as in Snapshot.
func (m *Serving) WritePrometheus(w io.Writer, queueDepth, inFlight int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	bw := bufio.NewWriter(w)

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatPromValue(v))
	}

	counter("grape_queries_total", "Queries answered (cache hits, engine runs and errors).", m.queries)
	counter("grape_cache_hits_total", "Queries answered from the result cache.", m.hits)
	counter("grape_cache_misses_total", "Queries answered by running the engine.", m.misses)
	counter("grape_errors_total", "Queries that failed (parse or run errors).", m.errors)
	counter("grape_rejected_total", "Queries refused at admission (queue full).", m.rejected)
	counter("grape_timeouts_total", "Queries that exceeded their deadline queued or running.", m.timeouts)

	hitRate := 0.0
	if m.hits+m.misses > 0 {
		hitRate = float64(m.hits) / float64(m.hits+m.misses)
	}
	gauge("grape_cache_hit_rate", "Fraction of answered queries served from the cache.", hitRate)
	gauge("grape_queue_depth", "Queries waiting for admission right now.", float64(queueDepth))
	gauge("grape_in_flight", "Queries running right now.", float64(inFlight))

	// Labeled families: map iteration order is not deterministic, so sort —
	// scrapes should be diffable.
	fmt.Fprintf(bw, "# HELP grape_runs_total Completed engine runs by query class.\n# TYPE grape_runs_total counter\n")
	classes := make([]string, 0, len(m.runs))
	for c := range m.runs {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(bw, "grape_runs_total{class=%q} %d\n", c, m.runs[c])
	}
	counter("grape_recoveries_total", "Worker failures survived by checkpoint recovery.", m.recoveries)
	fmt.Fprintf(bw, "# HELP grape_response_bytes_total POST /query response body bytes written, by cache outcome.\n# TYPE grape_response_bytes_total counter\n")
	fmt.Fprintf(bw, "grape_response_bytes_total{kind=\"hit\"} %d\ngrape_response_bytes_total{kind=\"miss\"} %d\n", m.respBytes.Hit, m.respBytes.Miss)
	gauge("grape_cache_encoded_bytes", "Encoded result bytes held by live result-cache entries.", float64(m.cacheEncoded))
	fmt.Fprintf(bw, "# HELP grape_worker_imbalance Per-worker work share of the most recent run, x workers (1.0 = perfect balance).\n# TYPE grape_worker_imbalance gauge\n")
	for w, v := range m.imbalance {
		fmt.Fprintf(bw, "grape_worker_imbalance{worker=\"%d\"} %s\n", w, formatPromValue(v))
	}

	// Durable-store families, one series per graph, sorted for diffable
	// scrapes.
	if len(m.durable) > 0 {
		graphs := make([]string, 0, len(m.durable))
		for g := range m.durable {
			graphs = append(graphs, g)
		}
		sort.Strings(graphs)
		durGauge := func(name, help string, v func(GraphDurability) float64) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, g := range graphs {
				fmt.Fprintf(bw, "%s{graph=%q} %s\n", name, g, formatPromValue(v(m.durable[g])))
			}
		}
		durGauge("grape_journal_records", "Mutation batches journaled since the graph's snapshot.",
			func(d GraphDurability) float64 { return float64(d.JournalRecords) })
		durGauge("grape_journal_bytes", "Journal file size in bytes (header included).",
			func(d GraphDurability) float64 { return float64(d.JournalBytes) })
		durGauge("grape_snapshot_epoch", "Epoch of the graph's on-disk snapshot.",
			func(d GraphDurability) float64 { return float64(d.SnapshotEpoch) })
		durGauge("grape_compactions_total", "Journal compactions since the graph became resident.",
			func(d GraphDurability) float64 { return float64(d.Compactions) })
		durGauge("grape_journal_append_failures_total", "Mutation batches refused because the journal append failed.",
			func(d GraphDurability) float64 { return float64(d.AppendFailures) })
		durGauge("grape_recovery_duration_seconds", "Wall time of the last crash recovery (snapshot load + journal replay).",
			func(d GraphDurability) float64 { return d.RecoveryMs / 1e3 })
		durGauge("grape_recovery_replayed_records", "Journal records replayed by the last crash recovery.",
			func(d GraphDurability) float64 { return float64(d.Replayed) })
	}

	counter("grape_unusable_snapshots_total", "Graphs recovery left non-resident: durable state whose snapshots all fail validation.", m.unusable)

	// Histogram: cumulative buckets with `le` in seconds.
	fmt.Fprintf(bw, "# HELP grape_request_duration_seconds Request latency (queue wait included).\n# TYPE grape_request_duration_seconds histogram\n")
	var cum uint64
	for i, c := range m.buckets {
		cum += c
		le := float64(uint64(1)<<uint(i)) / 1e6 // bucket upper bound: 2^i µs, in seconds
		fmt.Fprintf(bw, "grape_request_duration_seconds_bucket{le=%q} %d\n", formatPromValue(le), cum)
	}
	fmt.Fprintf(bw, "grape_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.queries)
	fmt.Fprintf(bw, "grape_request_duration_seconds_sum %s\n", formatPromValue(m.sum.Seconds()))
	fmt.Fprintf(bw, "grape_request_duration_seconds_count %d\n", m.queries)
	return bw.Flush()
}

func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseExposition validates Prometheus text-exposition data and returns the
// parsed samples keyed by series (metric name plus label block, verbatim).
// It checks what a scraper depends on: every sample line is
// `series value`, every value parses as a float, `# TYPE` lines name a
// known metric kind, and no series repeats. It is the self-check used by
// the repo's own tests in place of an external promtool.
func ParseExposition(data []byte) (map[string]float64, error) {
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: comment is neither # HELP nor # TYPE: %q", line, text)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed # TYPE: %q", line, text)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
			}
			continue
		}
		// Sample line: name{labels} value [timestamp]. The label block may
		// contain spaces inside quoted values, so split on the last space
		// run outside braces.
		series, value, ok := splitSample(text)
		if !ok {
			return nil, fmt.Errorf("line %d: malformed sample: %q", line, text)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", line, value, err)
		}
		if _, dup := samples[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", line, series)
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no samples")
	}
	return samples, nil
}

// splitSample splits a sample line into series and value, tolerating spaces
// inside quoted label values.
func splitSample(text string) (series, value string, ok bool) {
	inQuote := false
	end := -1
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '"':
			if i == 0 || text[i-1] != '\\' {
				inQuote = !inQuote
			}
		case ' ', '\t':
			if !inQuote {
				end = i
				series = text[:i]
				value = strings.TrimSpace(text[i:])
				// keep scanning: the value is after the LAST label-block
				// boundary; but sample lines have exactly series + value
				// (+ optional timestamp), so the FIRST unquoted space ends
				// the series.
				i = len(text)
			}
		}
	}
	if end < 0 || series == "" || value == "" {
		return "", "", false
	}
	// Strip an optional trailing timestamp.
	if fields := strings.Fields(value); len(fields) > 1 {
		value = fields[0]
	}
	return series, value, true
}
