package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusParses(t *testing.T) {
	m := NewServing()
	m.ObserveHit(50 * time.Microsecond)
	m.ObserveMiss(3 * time.Millisecond)
	m.ObserveError(time.Second)
	m.ObserveRejected()
	m.ObserveTimeout()
	m.ObserveRun("sssp", &Stats{Workers: 2, WorkPerStep: [][]int64{{30, 10}}})
	m.ObserveRun("cc", &Stats{Workers: 2, WorkPerStep: [][]int64{{5, 5}}, Recoveries: []Recovery{{Superstep: 1}}})
	m.ObserveResponse(false, 700)
	m.ObserveResponse(true, 650)
	m.ObserveResponse(true, 650)
	m.AddCacheEncodedBytes(600)
	m.AddCacheEncodedBytes(400)
	m.AddCacheEncodedBytes(-600)
	m.ObserveUnusableSnapshot()

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf, 3, 2); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	want := map[string]float64{
		"grape_queries_total":                     3,
		"grape_cache_hits_total":                  1,
		"grape_cache_misses_total":                1,
		"grape_errors_total":                      1,
		"grape_rejected_total":                    1,
		"grape_timeouts_total":                    1,
		"grape_cache_hit_rate":                    0.5,
		"grape_queue_depth":                       3,
		"grape_in_flight":                         2,
		`grape_runs_total{class="sssp"}`:          1,
		`grape_runs_total{class="cc"}`:            1,
		"grape_recoveries_total":                  1,
		`grape_response_bytes_total{kind="hit"}`:  1300,
		`grape_response_bytes_total{kind="miss"}`: 700,
		"grape_cache_encoded_bytes":               400,
		"grape_unusable_snapshots_total":          1,
		`grape_worker_imbalance{worker="0"}`:      1, // last run was cc: 5*2/10
		`grape_worker_imbalance{worker="1"}`:      1,
		"grape_request_duration_seconds_count":    3,
	}
	for series, v := range want {
		got, ok := samples[series]
		if !ok {
			t.Errorf("missing series %q\n%s", series, buf.String())
			continue
		}
		if got != v {
			t.Errorf("%s = %g, want %g", series, got, v)
		}
	}

	// Histogram: cumulative, +Inf equals the count, sum positive.
	if inf := samples[`grape_request_duration_seconds_bucket{le="+Inf"}`]; inf != 3 {
		t.Errorf("+Inf bucket = %g, want 3", inf)
	}
	if sum := samples["grape_request_duration_seconds_sum"]; sum <= 1.0 || sum > 1.01 {
		t.Errorf("sum = %g, want ~1.003", sum)
	}
	var prev float64 = -1
	for i := 0; i < servingBuckets; i++ {
		le := formatPromValue(float64(uint64(1)<<uint(i)) / 1e6)
		v, ok := samples[`grape_request_duration_seconds_bucket{le="`+le+`"}`]
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < prev {
			t.Fatalf("bucket le=%s not cumulative: %g < %g", le, v, prev)
		}
		prev = v
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	m := NewServing()
	for _, c := range []string{"sssp", "cc", "sim", "subiso", "keyword", "cf", "tricount"} {
		m.ObserveRun(c, nil)
	}
	var a, b bytes.Buffer
	if err := m.WritePrometheus(&a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&b, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of identical state differ (labeled families must be sorted)")
	}
	// Classes must appear in sorted order.
	idx := func(s string) int { return strings.Index(a.String(), `class="`+s+`"`) }
	if !(idx("cc") < idx("cf") && idx("cf") < idx("keyword") && idx("keyword") < idx("sssp")) {
		t.Fatalf("classes not sorted:\n%s", a.String())
	}
}

func TestParseExpositionRejects(t *testing.T) {
	bad := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad comment", "# BOGUS foo bar\n"},
		{"bad type", "# TYPE foo flavor\n"},
		{"no value", "grape_queries_total\n"},
		{"bad value", "grape_queries_total one\n"},
		{"duplicate series", "a 1\na 2\n"},
	}
	for _, tc := range bad {
		if _, err := ParseExposition([]byte(tc.data)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}

	good := "# HELP a help text with spaces\n# TYPE a counter\na 1\nb{l=\"x y\"} 2.5\nc 3 1712000000\n"
	samples, err := ParseExposition([]byte(good))
	if err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	if samples[`b{l="x y"}`] != 2.5 {
		t.Fatalf("quoted-space label sample = %v", samples)
	}
	if samples["c"] != 3 {
		t.Fatalf("timestamped sample = %v", samples)
	}
}
