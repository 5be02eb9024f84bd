package server_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"grape/internal/gen"
	"grape/internal/server"
	"grape/internal/server/client"
)

func TestHTTPRoundTrip(t *testing.T) {
	road := gen.RoadGrid(16, 16, 1)
	s := server.New(server.Config{Workers: 4, Strategy: "hash"})
	if err := s.AddGraph("road", road); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	res, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Distances()
	if err != nil {
		t.Fatal(err)
	}
	server.CheckAnswer(t, road, "sssp", "source=0", got)
	if res.Canonical != "source=0" || res.Epoch != 1 || res.Cached {
		t.Fatalf("unexpected response envelope: %+v", res)
	}

	// warm: second identical query is a cache hit over the wire too
	res2, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second HTTP query not served from cache")
	}

	graphs, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 1 || graphs[0].Name != "road" || graphs[0].Vertices != road.NumVertices() {
		t.Fatalf("graphs = %+v", graphs)
	}

	mut, err := c.Mutate(ctx, "road", []server.EdgeJSON{{From: 0, To: 255, W: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 2 {
		t.Fatalf("epoch after mutation = %d, want 2", mut.Epoch)
	}
	res3, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached || res3.Epoch != 2 {
		t.Fatalf("post-mutation query: cached=%v epoch=%d, want fresh at epoch 2", res3.Cached, res3.Epoch)
	}
	d3, err := res3.Distances()
	if err != nil {
		t.Fatal(err)
	}
	if d3[255] != 0.25 {
		t.Fatalf("distance to 255 after shortcut = %g, want 0.25", d3[255])
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries < 3 || st.CacheHits < 1 {
		t.Fatalf("stats = %+v", st)
	}

	// error mapping
	if _, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "nope"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown program error = %v, want HTTP 404", err)
	}
	if _, err := c.Query(ctx, server.QueryRequest{Graph: "road", Program: "sssp", Query: "source=x"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad query error = %v, want HTTP 400", err)
	}
}
