package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestServingCounts(t *testing.T) {
	m := NewServing()
	m.ObserveHit(1 * time.Millisecond)
	m.ObserveHit(2 * time.Millisecond)
	m.ObserveMiss(10 * time.Millisecond)
	m.ObserveError(5 * time.Millisecond)
	m.ObserveRejected()
	m.ObserveTimeout()

	s := m.Snapshot(3, 2)
	if s.Queries != 4 {
		t.Fatalf("queries = %d, want 4", s.Queries)
	}
	if s.CacheHits != 2 || s.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", s.CacheHits, s.CacheMisses)
	}
	if want := 2.0 / 3.0; s.CacheHitRate != want {
		t.Fatalf("hit rate = %g, want %g", s.CacheHitRate, want)
	}
	if s.Errors != 1 || s.Rejected != 1 || s.Timeouts != 1 {
		t.Fatalf("errors/rejected/timeouts = %d/%d/%d, want 1/1/1", s.Errors, s.Rejected, s.Timeouts)
	}
	if s.QueueDepth != 3 || s.InFlight != 2 {
		t.Fatalf("gauges = %d/%d, want 3/2", s.QueueDepth, s.InFlight)
	}
	if s.LatencyMaxMs != 10 {
		t.Fatalf("max = %gms, want 10ms", s.LatencyMaxMs)
	}
	if s.LatencyMeanMs <= 0 || s.LatencyP50Ms <= 0 || s.LatencyP99Ms < s.LatencyP50Ms {
		t.Fatalf("implausible latency summary: %+v", s)
	}

	// Answer bytes: bodies by cache outcome, the held-encodings gauge, and an
	// answer that could not be encoded — an error on top of its hit or miss,
	// not another query.
	m.ObserveResponse(true, 300)
	m.ObserveResponse(false, 500)
	m.ObserveResponse(true, 300)
	m.AddCacheEncodedBytes(450)
	m.AddCacheEncodedBytes(-200)
	m.ObserveResponseError()
	s = m.Snapshot(0, 0)
	if s.ResponseBytesTotal != (ResponseBytes{Hit: 600, Miss: 500}) || s.CacheEncodedBytes != 250 {
		t.Fatalf("response bytes %+v, cache encoded bytes %d; want {600 500} and 250", s.ResponseBytesTotal, s.CacheEncodedBytes)
	}
	if s.Errors != 2 || s.Queries != 4 {
		t.Fatalf("errors/queries = %d/%d after a response error, want 2/4", s.Errors, s.Queries)
	}
}

func TestServingHistogramBuckets(t *testing.T) {
	// bucket bounds: an observation of d lands in a bucket whose upper
	// bound is at least d
	for _, d := range []time.Duration{500 * time.Nanosecond, time.Microsecond,
		100 * time.Microsecond, time.Millisecond, time.Second, time.Hour} {
		m := NewServing()
		m.ObserveMiss(d)
		s := m.Snapshot(0, 0)
		if len(s.Histogram) != 1 {
			t.Fatalf("%v: %d buckets, want 1", d, len(s.Histogram))
		}
		b := s.Histogram[0]
		ms := d.Seconds() * 1e3
		// the last bucket is a catch-all; others must bound the value
		if b.UnderMs < ms && b.UnderMs != bucketUpperMs(servingBuckets-1) {
			t.Fatalf("%v landed in bucket under %gms", d, b.UnderMs)
		}
	}
}

func TestServingConcurrent(t *testing.T) {
	m := NewServing()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.ObserveHit(time.Millisecond)
				m.ObserveMiss(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot(0, 0)
	if s.Queries != 1600 {
		t.Fatalf("queries = %d, want 1600", s.Queries)
	}
	if s.CacheHitRate != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", s.CacheHitRate)
	}
}
