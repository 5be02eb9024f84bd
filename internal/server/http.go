package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"grape/internal/metrics"
	"grape/internal/trace"
)

// Handler returns the server's HTTP/JSON API:
//
//	POST /query   QueryRequest  -> QueryResponse
//	POST /update  MutateRequest -> MutateResponse
//	GET  /graphs  -> []GraphInfo
//	GET  /stats   -> metrics.ServingSnapshot
//	GET  /healthz -> Health (liveness + resident graph count; readiness probe)
//	GET  /metrics -> Prometheus text exposition (see metrics.WritePrometheus)
//	GET  /debug/runs      -> flight-recorder index: retained run summaries + events
//	GET  /debug/runs/{id} -> one run's trace as Chrome trace-event JSON
//	                         (load it in Perfetto / chrome://tracing)
//
// Errors come back as {"error": "..."} with 400 (bad query, or a body that is
// not exactly one JSON value of the request's shape), 404 (unknown
// graph/program), 413 (body over 1 MiB), 429 (admission queue full), 504
// (deadline exceeded or client gone — the engine run is cancelled with the
// request) or 500 (run failure, or an answer JSON
// cannot carry, such as NaN factors from a diverged cf run: every request
// for it gets the encoder's error, never a partial or empty 200).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		resp, err := s.Query(r.Context(), req)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		s.writeAnswer(w, resp)
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		resp, err := s.Mutate(r.Context(), req.Graph, req.Program, req.Query, req.Edges)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Graphs())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Health())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, FlightIndex{Runs: s.flight.Runs(), Events: s.flight.Events()})
	})
	mux.HandleFunc("GET /debug/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, ok := s.flight.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("%w: no retained run %q (the flight ring evicts old traces)", ErrNotFound, r.PathValue("id")))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, run)
	})
	return mux
}

// decodeBody reads the request body as exactly one JSON value of into's
// shape: unknown fields, a second value and trailing garbage are all bad
// requests, and a body over 1 MiB is too large.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		// Token reports bare io.EOF when only whitespace is left.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("unexpected data after the request's JSON value")
		}
	}
	return fmt.Errorf("%w: decoding request body: %w", ErrBadQuery, err)
}

func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeAnswer is the one function that writes a POST /query answer: envelope
// head (graph, epoch, program, canonical, cached) · the answer's encoded
// result bytes, verbatim · envelope tail (stats, trace_id), under an exact
// Content-Length. The result bytes are made once per computed answer
// (resultCache.encoded, by appendAnswer in encode.go: json.Marshal's bytes
// and errors exactly, without reflection for the sssp, cc, sim and subiso
// results), so nothing here grows with the result. The envelope goes through
// encoding/json, which keeps the body byte-identical to encoding a
// QueryResponse whole. Everything that can fail happens before a header is
// committed.
func (s *Server) writeAnswer(w http.ResponseWriter, r *QueryResponse) {
	result, err := s.cache.encoded(r.answer)
	head, herr := json.Marshal(struct {
		Graph     string `json:"graph"`
		Epoch     uint64 `json:"epoch"`
		Program   string `json:"program"`
		Canonical string `json:"canonical"`
		Cached    bool   `json:"cached"`
	}{r.Graph, r.Epoch, r.Program, r.Canonical, r.Cached})
	tail, terr := json.Marshal(struct {
		Stats   RunStats `json:"stats"`
		TraceID string   `json:"trace_id,omitempty"`
	}{r.Stats, r.TraceID})
	if err := errors.Join(err, herr, terr); err != nil {
		s.serving.ObserveResponseError()
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("server: encoding the %s answer: %w", r.Program, err))
		return
	}
	head = append(head[:len(head)-1], `,"result":`...) // reopen the object
	tail[0] = ','                                      // and continue it
	tail = append(tail, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(result)+len(tail)))
	var written int
	for _, part := range [...][]byte{head, result, tail} {
		n, err := w.Write(part)
		written += n
		if err != nil {
			break // the client is gone; there is nobody to tell
		}
	}
	s.serving.ObserveResponse(r.Cached, written)
}

// writeJSON encodes v before any header is committed, so a value JSON cannot
// carry is a 500 with the encoder's message, not a 200 cut short.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
