package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"grape/internal/gen"
)

// FuzzQueryBody posts arbitrary bytes to POST /query and POST /update of a
// small resident server. Whatever arrives, the handler must not panic, must
// answer with one of the documented statuses, and must send a non-empty JSON
// object: {"error": ...} unless the status is 200, and an answer (result
// and/or epoch) when it is.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"road","program":"sssp","query":"source=0"}`,
		// layout fields a body cannot set: an unknown-field 400
		`{"graph":"road","program":"cc","query":"","workers":3,"strategy":"2d","nocache":true}`,
		`{"graph":"road","edges":[{"from":0,"to":9,"w":0.5},{"from":0,"to":1,"del":true}]}`,
		`{"graph":"road","program":"sssp","query":"source=0","edges":[{"from":1,"to":2,"w":2}]}`,
		// the un-encodable answer: NaN factors from a diverged cf run
		`{"graph":"r","program":"cf","query":"lr=50 epochs=30"}`,
		// keyword queries Parse must refuse: a NaN bound (answered, and cached,
		// as an unbounded query), a negative one, an empty keyword
		`{"graph":"road","program":"keyword","query":"k=db,graph bound=NaN"}`,
		`{"graph":"road","program":"keyword","query":"k=db,graph bound=-1"}`,
		`{"graph":"road","program":"keyword","query":"k=db,,graph bound=4"}`,
		// loosely parsed bodies: a second value, trailing garbage
		`{"graph":"road","program":"cc","query":""}{"graph":"nope"}`,
		`{"graph":"road","program":"cc","query":""} trailing garbage`,
		`{"graph":"nope","program":"cc"}`, `{"graph":"road","program":"nope"}`,
		`{"graph":"road","bogus":1}`, `[]`, `{`, ``,
	} {
		f.Add(false, []byte(seed))
		f.Add(true, []byte(seed))
	}
	s := New(Config{Workers: 2, Strategy: "hash", QueryTimeout: 2 * time.Second})
	if err := s.AddGraph("road", gen.RoadGrid(6, 6, 1)); err != nil {
		f.Fatal(err)
	}
	if err := s.AddGraph("r", gen.Ratings(gen.RatingsConfig{Users: 100, Items: 30, RatingsPerUser: 8, Factors: 4, Noise: 0.1, Seed: 1})); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, update bool, body []byte) {
		path := "/query"
		if update {
			path = "/update"
		}
		rec := post(h, path, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusGatewayTimeout:
		default:
			t.Fatalf("POST %s %q: undocumented status %d", path, body, rec.Code)
		}
		var reply map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("POST %s %q: status %d with a body that is not a JSON object: %v\n%q", path, body, rec.Code, err, rec.Body)
		}
		_, isErr := reply["error"]
		_, hasResult := reply["result"]
		_, hasEpoch := reply["epoch"]
		if ok := rec.Code == http.StatusOK; isErr == ok || (hasResult || hasEpoch) != ok {
			t.Fatalf("POST %s %q: status %d with body %.200q", path, body, rec.Code, rec.Body)
		}
	})
}
