package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Serving aggregates what a resident query service measures per request —
// the serving-side complement of Stats, which measures one engine run. A
// single Serving instance is shared by every request goroutine; all methods
// are safe for concurrent use.
//
// Latencies go into a histogram of power-of-two microsecond buckets
// (bucket 0 is [0, 1) µs, bucket i ≥ 1 covers [2^(i-1), 2^i) µs — so 2^i µs
// is bucket i's exclusive upper bound), wide enough to span a cache hit
// (~µs) to a cold multi-superstep run (~minutes) in 32 buckets.
type Serving struct {
	mu sync.Mutex

	queries  uint64 // answered (hit or computed), including errors
	hits     uint64 // answered from the result cache
	misses   uint64 // answered by running the engine
	errors   uint64 // run or parse failures surfaced to the client
	rejected uint64 // refused at admission: queue full
	timeouts uint64 // gave up waiting (queue or run exceeded the deadline)

	buckets [servingBuckets]uint64
	sum     time.Duration
	max     time.Duration

	// Engine-run observability (ObserveRun): completed runs per query
	// class, recoveries survived, and the most recent run's per-worker
	// imbalance gauge — each worker's share of the run's total work times
	// the worker count, so 1.0 is perfect balance and the largest value
	// marks the straggler.
	runs       map[string]uint64
	recoveries uint64
	imbalance  []float64

	// Durable-store observability (SetDurability): per-graph journal length,
	// snapshot epoch and the last recovery's cost, keyed by graph name; and
	// the graphs recovery found durable state for but no snapshot that
	// validates (ObserveUnusableSnapshot).
	durable  map[string]GraphDurability
	unusable uint64

	// Answer-bytes observability: POST /query body bytes written, split by
	// cache outcome (ObserveResponse), and the result encodings live cache
	// entries hold right now (AddCacheEncodedBytes).
	respBytes    ResponseBytes
	cacheEncoded int64
}

// ResponseBytes counts POST /query response body bytes by cache outcome.
type ResponseBytes struct {
	Hit  uint64 `json:"hit"`
	Miss uint64 `json:"miss"`
}

// ObserveResponse records n body bytes written for a /query answer.
func (m *Serving) ObserveResponse(cached bool, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cached {
		m.respBytes.Hit += uint64(n)
	} else {
		m.respBytes.Miss += uint64(n)
	}
}

// ObserveResponseError records an answer that was found or computed —
// already counted as a hit or a miss — but could not be encoded for the
// client, who got an error instead.
func (m *Serving) ObserveResponseError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errors++
}

// AddCacheEncodedBytes moves the gauge of encoded result bytes held by live
// cache entries: positive when an entry is first encoded, negative when an
// encoded entry is evicted or overwritten.
func (m *Serving) AddCacheEncodedBytes(delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheEncoded += delta
}

// GraphDurability is the durable-store state of one graph: how much journal
// has accumulated since its snapshot, and what the last crash recovery cost.
// The serving layer pushes a fresh value after every recovery, mutation and
// compaction.
type GraphDurability struct {
	Graph          string  `json:"graph"`
	SnapshotEpoch  uint64  `json:"snapshot_epoch"`
	JournalRecords int     `json:"journal_records"`
	JournalBytes   int64   `json:"journal_bytes"`
	Mapped         bool    `json:"mapped"`
	Compactions    uint64  `json:"compactions"`
	AppendFailures uint64  `json:"append_failures"`
	RecoveryMs     float64 `json:"recovery_ms"`
	Replayed       int     `json:"replayed_records"`
}

// SetDurability publishes the durable-store gauges for one graph.
func (m *Serving) SetDurability(d GraphDurability) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.durable == nil {
		m.durable = make(map[string]GraphDurability)
	}
	m.durable[d.Graph] = d
}

// ObserveUnusableSnapshot records a graph whose durable state recovery could
// not use: snapshots exist, none validates, and the graph stays non-resident.
func (m *Serving) ObserveUnusableSnapshot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unusable++
}

const servingBuckets = 32

// NewServing returns an empty collector.
func NewServing() *Serving { return &Serving{runs: make(map[string]uint64)} }

// ObserveRun records a completed engine run: bumps the class's run counter,
// accumulates its recoveries, and recomputes the per-worker imbalance gauge
// from the run's WorkPerStep rows. Nil or work-free stats still count the
// run but leave the gauge at perfect balance.
func (m *Serving) ObserveRun(class string, st *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runs == nil {
		m.runs = make(map[string]uint64)
	}
	m.runs[class]++
	if st == nil {
		return
	}
	m.recoveries += uint64(len(st.Recoveries))
	if st.Workers <= 0 {
		return
	}
	totals := make([]int64, st.Workers)
	var grand int64
	for _, row := range st.WorkPerStep {
		for w, work := range row {
			if w < len(totals) {
				totals[w] += work
				grand += work
			}
		}
	}
	gauge := make([]float64, st.Workers)
	for w := range gauge {
		if grand > 0 {
			gauge[w] = float64(totals[w]) * float64(st.Workers) / float64(grand)
		} else {
			gauge[w] = 1.0
		}
	}
	m.imbalance = gauge
}

func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for <1µs, else floor(log2)+1
	if b >= servingBuckets {
		b = servingBuckets - 1
	}
	return b
}

func (m *Serving) observe(d time.Duration) {
	m.queries++
	m.buckets[bucketOf(d)]++
	m.sum += d
	if d > m.max {
		m.max = d
	}
}

// ObserveHit records a query answered from the result cache in d.
func (m *Serving) ObserveHit(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hits++
	m.observe(d)
}

// ObserveMiss records a query answered by running the engine in d (queue
// wait included).
func (m *Serving) ObserveMiss(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.misses++
	m.observe(d)
}

// ObserveError records a query that failed after d.
func (m *Serving) ObserveError(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errors++
	m.observe(d)
}

// ObserveRejected records a query refused at admission (queue full).
func (m *Serving) ObserveRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

// ObserveTimeout records a query that exceeded its deadline while queued or
// running.
func (m *Serving) ObserveTimeout() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timeouts++
}

// ServingBucket is one histogram bucket of a snapshot: Count latencies fell
// in [UnderMs of the previous bucket, UnderMs).
type ServingBucket struct {
	UnderMs float64 `json:"under_ms"`
	Count   uint64  `json:"count"`
}

// ServingSnapshot is a point-in-time copy of the serving metrics, shaped for
// a /stats endpoint. Quantiles are upper bounds of the histogram bucket the
// quantile falls in.
type ServingSnapshot struct {
	Queries      uint64  `json:"queries"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Errors       uint64  `json:"errors"`
	Rejected     uint64  `json:"rejected"`
	Timeouts     uint64  `json:"timeouts"`

	// QueueDepth and InFlight are scheduler gauges the caller samples at
	// snapshot time (the collector only sees finished requests).
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`

	LatencyMeanMs float64         `json:"latency_mean_ms"`
	LatencyP50Ms  float64         `json:"latency_p50_ms"`
	LatencyP90Ms  float64         `json:"latency_p90_ms"`
	LatencyP99Ms  float64         `json:"latency_p99_ms"`
	LatencyMaxMs  float64         `json:"latency_max_ms"`
	Histogram     []ServingBucket `json:"histogram,omitempty"`

	// Engine-run observability, mirrored on /metrics as
	// grape_runs_total{class=...}, grape_recoveries_total and
	// grape_worker_imbalance{worker=...}.
	RunsByClass     map[string]uint64 `json:"runs_by_class,omitempty"`
	Recoveries      uint64            `json:"recoveries"`
	WorkerImbalance []float64         `json:"worker_imbalance,omitempty"`

	// Answer bytes, mirrored on /metrics as
	// grape_response_bytes_total{kind="hit"|"miss"} and
	// grape_cache_encoded_bytes.
	ResponseBytesTotal ResponseBytes `json:"response_bytes_total"`
	CacheEncodedBytes  int64         `json:"cache_encoded_bytes"`

	// Durable-store state per graph, sorted by name; mirrored on /metrics as
	// grape_journal_records / grape_journal_bytes / grape_snapshot_epoch /
	// grape_recovery_duration_seconds (all labeled {graph=...}).
	Durable []GraphDurability `json:"durable,omitempty"`
	// UnusableSnapshots counts graphs recovery refused because no snapshot
	// of theirs validates; mirrored on /metrics as
	// grape_unusable_snapshots_total.
	UnusableSnapshots uint64 `json:"unusable_snapshots,omitempty"`
}

// Snapshot copies the counters out. queueDepth and inFlight are the
// scheduler's current gauges.
func (m *Serving) Snapshot(queueDepth, inFlight int) ServingSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := ServingSnapshot{
		Queries:     m.queries,
		CacheHits:   m.hits,
		CacheMisses: m.misses,
		Errors:      m.errors,
		Rejected:    m.rejected,
		Timeouts:    m.timeouts,
		QueueDepth:  queueDepth,
		InFlight:    inFlight,

		ResponseBytesTotal: m.respBytes,
		CacheEncodedBytes:  m.cacheEncoded,
		UnusableSnapshots:  m.unusable,
	}
	if m.hits+m.misses > 0 {
		s.CacheHitRate = float64(m.hits) / float64(m.hits+m.misses)
	}
	if m.queries > 0 {
		s.LatencyMeanMs = (m.sum / time.Duration(m.queries)).Seconds() * 1e3
	}
	s.LatencyMaxMs = m.max.Seconds() * 1e3
	s.LatencyP50Ms = m.quantileMs(0.50)
	s.LatencyP90Ms = m.quantileMs(0.90)
	s.LatencyP99Ms = m.quantileMs(0.99)
	if len(m.runs) > 0 {
		s.RunsByClass = make(map[string]uint64, len(m.runs))
		for c, n := range m.runs {
			s.RunsByClass[c] = n
		}
	}
	s.Recoveries = m.recoveries
	s.WorkerImbalance = append([]float64(nil), m.imbalance...)
	for _, d := range m.durable {
		s.Durable = append(s.Durable, d)
	}
	sort.Slice(s.Durable, func(i, j int) bool { return s.Durable[i].Graph < s.Durable[j].Graph })
	for i, c := range m.buckets {
		if c == 0 {
			continue
		}
		s.Histogram = append(s.Histogram, ServingBucket{UnderMs: bucketUpperMs(i), Count: c})
	}
	return s
}

// bucketUpperMs is the exclusive upper bound of bucket i in milliseconds.
func bucketUpperMs(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e3 // 2^i µs
}

func (m *Serving) quantileMs(q float64) float64 {
	if m.queries == 0 {
		return 0
	}
	target := uint64(q * float64(m.queries))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range m.buckets {
		cum += c
		if cum >= target {
			return bucketUpperMs(i)
		}
	}
	return bucketUpperMs(servingBuckets - 1)
}
