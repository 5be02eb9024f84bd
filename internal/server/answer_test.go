package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"grape/internal/gen"
)

// Answer bytes: a computed result is encoded once and every POST /query
// response writes those bytes between a small envelope. These tests pin
// that the bodies did not move (against the encoder the handler used to
// run per response, kept here as the reference), that they are framed with
// an exact Content-Length, that a hit costs memory independent of the
// answer's size, and that concurrent first hits share one encoding.

// referenceResponse is the wire shape as POST /query produced it before the
// answer-bytes writer: a MarshalJSON that marshals the result, splices it
// into the envelope as a json.RawMessage, and is itself run through an
// Encoder with SetEscapeHTML(false). Reference only — nothing serves it.
type referenceResponse struct {
	Graph     string
	Epoch     uint64
	Program   string
	Canonical string
	Cached    bool
	Result    any
	Stats     RunStats
	TraceID   string
}

func (r referenceResponse) MarshalJSON() ([]byte, error) {
	raw, err := json.Marshal(r.Result)
	if err != nil {
		return nil, err
	}
	type wire struct {
		Graph     string          `json:"graph"`
		Epoch     uint64          `json:"epoch"`
		Program   string          `json:"program"`
		Canonical string          `json:"canonical"`
		Cached    bool            `json:"cached"`
		Result    json.RawMessage `json:"result"`
		Stats     RunStats        `json:"stats"`
		TraceID   string          `json:"trace_id,omitempty"`
	}
	return json.Marshal(wire{r.Graph, r.Epoch, r.Program, r.Canonical, r.Cached, raw, r.Stats, r.TraceID})
}

func referenceBody(t testing.TB, r referenceResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post serves one request straight through the handler.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func queryBody(t testing.TB, req QueryRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnswerBytesGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, Strategy: "hash"})
	h := s.Handler()
	cases := append(programCases[:len(programCases):len(programCases)], struct{ program, graph, query string }{
		// every character encoding/json escapes differently under
		// SetEscapeHTML, inside the canonical form
		"keyword", "social", `k=<db>,&,"q" bound=2`,
	})
	for _, c := range cases {
		t.Run(c.program+" "+c.query, func(t *testing.T) {
			req := QueryRequest{Graph: c.graph, Program: c.program, Query: c.query}
			miss := post(h, "/query", queryBody(t, req))
			hit := post(h, "/query", queryBody(t, req))
			if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
				t.Fatalf("status miss=%d hit=%d\n%s", miss.Code, hit.Code, miss.Body)
			}
			var env struct {
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal(miss.Body.Bytes(), &env); err != nil || env.TraceID == "" {
				t.Fatalf("miss body carries no trace_id (err=%v)", err)
			}
			// the Go values behind the bytes, from the in-process API
			direct, err := s.Query(t.Context(), req)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceResponse{Graph: c.graph, Epoch: 1, Program: c.program, Canonical: direct.Canonical,
				Result: direct.Result, Stats: direct.Stats, TraceID: env.TraceID}
			if got := miss.Body.Bytes(); !bytes.Equal(got, referenceBody(t, want)) {
				t.Fatalf("miss body moved:\n got %.300s\nwant %.300s", got, referenceBody(t, want))
			}
			want.Cached, want.TraceID = true, ""
			if got := hit.Body.Bytes(); !bytes.Equal(got, referenceBody(t, want)) {
				t.Fatalf("hit body moved:\n got %.300s\nwant %.300s", got, referenceBody(t, want))
			}
			// the hit is the miss but for the flag and the trace id
			asHit := strings.Replace(miss.Body.String(), `"cached":false`, `"cached":true`, 1)
			asHit = strings.Replace(asHit, fmt.Sprintf(`,"trace_id":%q`, env.TraceID), "", 1)
			if asHit != hit.Body.String() {
				t.Fatal("miss and hit bodies differ in more than cached and trace_id")
			}
		})
	}
}

func TestAnswerContentLength(t *testing.T) {
	for _, side := range []int{8, 96} { // 64 and 9216 vertices
		s := New(Config{Workers: 4, Strategy: "hash"})
		if err := s.AddGraph("road", gen.RoadGrid(side, side, 1)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		body := queryBody(t, QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
		for _, kind := range []string{"miss", "hit"} {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%dx%d %s: status %d, Content-Length %d for a %d-byte body, Transfer-Encoding %v",
					side, side, kind, resp.StatusCode, resp.ContentLength, len(got), resp.TransferEncoding)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%dx%d %s: Content-Type %q", side, side, kind, ct)
			}
		}
		ts.Close()
	}
}

// discard is a ResponseWriter that keeps nothing but the status and the
// body length.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// hitCost serves hits of an sssp answer on a side x side road graph and
// returns the bytes allocated per hit and the body length.
func hitCost(t *testing.T, side int) (allocBytes uint64, bodyLen int) {
	t.Helper()
	s := New(Config{Workers: 4, Strategy: "hash"})
	if err := s.AddGraph("road", gen.RoadGrid(side, side, 1)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := queryBody(t, QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	serve := func() *discard {
		d := &discard{h: make(http.Header), status: http.StatusOK}
		h.ServeHTTP(d, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if d.status != http.StatusOK {
			t.Fatalf("status %d", d.status)
		}
		return d
	}
	serve()             // the miss: runs, caches, encodes
	bodyLen = serve().n // a hit
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if st := s.Stats(); st.CacheHits != runs+1 || st.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want %d hits after one miss", st.CacheHits, st.CacheMisses, runs+1)
	}
	return (after.TotalAlloc - before.TotalAlloc) / runs, bodyLen
}

// TestHitAllocationIndependentOfAnswerSize pins "a hit never re-reads its
// answer": what a hit allocates is bounded, and does not grow when the
// answer grows 36-fold. Re-encoding (or compacting, or copying) the result
// per response allocates in proportion to the body.
func TestHitAllocationIndependentOfAnswerSize(t *testing.T) {
	small, smallBody := hitCost(t, 16)
	large, largeBody := hitCost(t, 96)
	t.Logf("16x16: %d B/hit for a %d B body; 96x96: %d B/hit for a %d B body", small, smallBody, large, largeBody)
	if largeBody < 20*smallBody {
		t.Fatalf("bodies %d and %d bytes: the large answer is not much larger", smallBody, largeBody)
	}
	if small > 16<<10 {
		t.Errorf("a hit allocates %d bytes, want a bounded envelope's worth (<= 16 KiB)", small)
	}
	if large > small+2<<10 {
		t.Errorf("a hit on the %d-byte answer allocates %d bytes, %d on the %d-byte one: the cost grows with the answer",
			largeBody, large, small, smallBody)
	}
}

func TestConcurrentFirstHitsShareOneEncoding(t *testing.T) {
	s := New(Config{Workers: 4, Strategy: "hash"})
	if err := s.AddGraph("road", gen.RoadGrid(24, 24, 1)); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=3"}
	// computed and cached in-process: nothing has asked for its bytes yet
	direct, err := s.Query(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheEncodedBytes; got != 0 {
		t.Fatalf("cache_encoded_bytes = %d before any HTTP response", got)
	}
	h := s.Handler()
	body := queryBody(t, req)
	const clients = 32
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = post(h, "/query", body).Body.Bytes()
		}()
	}
	wg.Wait()
	want := referenceBody(t, referenceResponse{Graph: "road", Epoch: 1, Program: "sssp", Canonical: direct.Canonical,
		Cached: true, Result: direct.Result, Stats: direct.Stats})
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("client %d got a different body:\n got %.200s\nwant %.200s", i, b, want)
		}
	}
	enc, err := json.Marshal(direct.Result)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheEncodedBytes != int64(len(enc)) {
		t.Fatalf("cache_encoded_bytes = %d after %d first hits, want one encoding of %d bytes", st.CacheEncodedBytes, clients, len(enc))
	}
	if st.ResponseBytesTotal.Hit != uint64(clients*len(want)) || st.ResponseBytesTotal.Miss != 0 {
		t.Fatalf("response_bytes_total = %+v, want %d hit bytes", st.ResponseBytesTotal, clients*len(want))
	}
}

// TestCacheEncodedBytesFollowsTheLRU: the gauge counts exactly the encodings
// live entries hold — up when an entry is first encoded, down when the LRU
// evicts or overwrites it, untouched by answers nobody asked the bytes of.
func TestCacheEncodedBytesFollowsTheLRU(t *testing.T) {
	s := New(Config{Workers: 4, Strategy: "hash", CacheEntries: 1})
	if err := s.AddGraph("road", gen.RoadGrid(12, 12, 1)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	resultLen := func(req QueryRequest) int64 {
		t.Helper()
		rec := post(h, "/query", queryBody(t, req))
		var env struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, err %v", rec.Code, err)
		}
		return int64(len(env.Result))
	}
	gauge := func(step string, want int64) {
		t.Helper()
		if got := s.Stats().CacheEncodedBytes; got != want {
			t.Fatalf("%s: cache_encoded_bytes = %d, want %d", step, got, want)
		}
	}
	a := resultLen(QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	gauge("first answer encoded", a)
	b := resultLen(QueryRequest{Graph: "road", Program: "cc"})
	if a == b {
		t.Fatal("test wants two answers of different sizes")
	}
	gauge("second answer evicted the first", b)
	resultLen(QueryRequest{Graph: "road", Program: "cc", NoCache: true})
	gauge("recomputed answer overwrote its entry", b)
	if _, err := s.Query(t.Context(), QueryRequest{Graph: "road", Program: "sssp", Query: "source=1"}); err != nil {
		t.Fatal(err)
	}
	gauge("in-process answer evicted the encoded one", 0)
}

// TestRequestBodiesAreParsedStrictly: a request body is exactly one JSON
// value of the request's shape, at most 1 MiB.
func TestRequestBodiesAreParsedStrictly(t *testing.T) {
	s := New(Config{Workers: 4, Strategy: "hash"})
	if err := s.AddGraph("road", gen.RoadGrid(8, 8, 1)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	query := `{"graph":"road","program":"cc","query":""}`
	update := `{"graph":"road","edges":[{"from":0,"to":9,"w":0.5}]}`
	pad := strings.Repeat(" ", 1<<20)
	for _, ep := range []struct{ path, ok string }{{"/query", query}, {"/update", update}} {
		for _, c := range []struct {
			name, body string
			status     int
		}{
			{"one value", ep.ok, http.StatusOK},
			{"trailing whitespace", ep.ok + " \n\t", http.StatusOK},
			{"second value", ep.ok + `{"graph":"nope"}`, http.StatusBadRequest},
			{"trailing garbage", ep.ok + " trailing garbage", http.StatusBadRequest},
			{"trailing brace", ep.ok + "}", http.StatusBadRequest},
			{"unknown field", `{"graph":"road","bogus":1}`, http.StatusBadRequest},
			{"wrong shape", `[1,2]`, http.StatusBadRequest},
			{"empty", "", http.StatusBadRequest},
			{"truncated", ep.ok[:len(ep.ok)-1], http.StatusBadRequest},
			{"over the cap inside the value", `{"graph":"` + pad + `"}`, http.StatusRequestEntityTooLarge},
			{"over the cap after the value", ep.ok + pad, http.StatusRequestEntityTooLarge},
		} {
			rec := post(h, ep.path, []byte(c.body))
			var reply map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Errorf("%s %s: body is not a JSON object: %v", ep.path, c.name, err)
			}
			_, isErr := reply["error"]
			if rec.Code != c.status || isErr != (c.status != http.StatusOK) {
				t.Errorf("%s %s: status %d (error body: %v), want %d\n%.200s", ep.path, c.name, rec.Code, isErr, c.status, rec.Body)
			}
		}
	}
}

// TestKeywordQueriesAreValidated: the keyword queries that cannot be answered
// as meant are 400s, the second time as the first — nothing of them is cached.
func TestKeywordQueriesAreValidated(t *testing.T) {
	s := New(Config{Workers: 2, Strategy: "hash"})
	g := gen.ConnectedRandom(60, 180, 3)
	gen.AttachKeywords(g, []string{"db", "graph"}, 2, 0.3, 3)
	if err := s.AddGraph("social", g); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, c := range []struct {
		query  string
		status int
	}{
		{"k=db,graph bound=4", http.StatusOK},
		{"k=db,graph bound=NaN", http.StatusBadRequest},
		{"k=db,graph bound=-1", http.StatusBadRequest},
		{"k=db,,graph bound=4", http.StatusBadRequest},
	} {
		body, _ := json.Marshal(QueryRequest{Graph: "social", Program: "keyword", Query: c.query})
		for try := 1; try <= 2; try++ {
			if rec := post(h, "/query", body); rec.Code != c.status {
				t.Errorf("%q, try %d: status %d, want %d\n%.200s", c.query, try, rec.Code, c.status, rec.Body)
			}
		}
	}
}

// TestMutationDropsSupersededAnswers: once a graph's epoch moves on, no key
// names the answers computed before it; the mutation drops them — results,
// encodings and all — and leaves other graphs' answers alone.
func TestMutationDropsSupersededAnswers(t *testing.T) {
	s := New(Config{Workers: 4, Strategy: "hash"})
	for _, name := range []string{"road", "other"} {
		if err := s.AddGraph(name, gen.RoadGrid(8, 8, 1)); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	for _, q := range []QueryRequest{
		{Graph: "road", Program: "sssp", Query: "source=0"},
		{Graph: "road", Program: "cc"},
		{Graph: "other", Program: "sssp", Query: "source=0"},
	} {
		if rec := post(h, "/query", queryBody(t, q)); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	other, err := s.Query(t.Context(), QueryRequest{Graph: "other", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := json.Marshal(other.Result)
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.len() != 3 || s.Stats().CacheEncodedBytes <= int64(len(kept)) {
		t.Fatalf("before the mutation: %d entries, %d encoded bytes", s.cache.len(), s.Stats().CacheEncodedBytes)
	}
	if _, err := s.Mutate(t.Context(), "road", "", "", []EdgeJSON{{From: 0, To: 9, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	// left: the other graph's answer, and road's primed cc answer at epoch 2
	if got := s.cache.len(); got != 2 {
		t.Fatalf("%d entries after the mutation, want 2", got)
	}
	if got := s.Stats().CacheEncodedBytes; got != int64(len(kept)) {
		t.Fatalf("cache_encoded_bytes = %d after the mutation, want the other graph's %d", got, len(kept))
	}
	if !other.Cached {
		t.Fatal("the other graph's answer was not cached")
	}
}
