package client_test

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"grape/internal/gen"
	"grape/internal/metrics"
	"grape/internal/queries"
	"grape/internal/server"
	"grape/internal/server/client"
)

// TestUnencodableAnswerIsAnError: a cf run that diverges produces NaN
// factors, which JSON cannot carry. The answer used to go out as a 200 with
// an empty body — on the miss and on every later hit. It must be a 500 with
// the encoder's message every time it is asked for, counted under /stats
// errors, while the in-process API still hands out the Go value.
func TestUnencodableAnswerIsAnError(t *testing.T) {
	s := server.New(server.Config{Workers: 4, Strategy: "hash"})
	ratings := gen.Ratings(gen.RatingsConfig{Users: 100, Items: 30, RatingsPerUser: 8, Factors: 4, Noise: 0.1, Seed: 1})
	if err := s.AddGraph("r", ratings); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()
	req := server.QueryRequest{Graph: "r", Program: "cf", Query: "lr=50 epochs=30"}

	for _, ask := range []string{"miss", "hit", "hit again"} {
		res, err := c.Query(ctx, req)
		if err == nil {
			t.Fatalf("%s: answered %+v, want an error", ask, res)
		}
		for _, want := range []string{"HTTP 500", "unsupported value: NaN"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", ask, err, want)
			}
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 3 || st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("/stats errors=%d misses=%d hits=%d, want 3 errors over 1 miss and 2 hits", st.Errors, st.CacheMisses, st.CacheHits)
	}
	if st.ResponseBytesTotal != (metrics.ResponseBytes{}) || st.CacheEncodedBytes != 0 {
		t.Errorf("/stats counts answer bytes that were never written: %+v, %d held", st.ResponseBytesTotal, st.CacheEncodedBytes)
	}

	direct, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	model, ok := direct.Result.(queries.CFResult)
	if !ok || !direct.Cached {
		t.Fatalf("in-process answer: cached=%v result %T, want the cached queries.CFResult", direct.Cached, direct.Result)
	}
	if !math.IsNaN(model.RMSE) {
		t.Fatalf("the model did not diverge (RMSE %g): this test needs a NaN to serve", model.RMSE)
	}
}
