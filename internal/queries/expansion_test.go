package queries

import (
	"context"
	"fmt"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/seq"
)

// TestExpansionKeepsAnchoredMatches: a 1-hop layout keeps, between two outer
// copies, only the edges that close a triangle with an inner vertex, and a
// match anchored at an inner vertex reads no other when its pattern has
// radius 1. tricount and each of the five library patterns, all radius 1,
// pass Entry.Check on such layouts under hash, fennel and 2d at 1, 3 and 8
// fragments on the bus, and at 3 fragments through a loopback wire session
// each. Every case has a non-empty answer, so no check passes vacuously.
func TestExpansionKeepsAnchoredMatches(t *testing.T) {
	random := gen.Random(300, 1500, 5) // directed cycles: the triangle pattern matches
	social := gen.PreferentialAttachment(400, 4, 3)
	commerce := gen.SocialCommerce(gen.SocialCommerceConfig{People: 200, Products: 6, Follows: 4, AdoptP: 0.8, Seed: 4})
	cases := []struct {
		program, query string
		g              *graph.Graph
	}{
		{"tricount", "", social},
		{"tricount", "", random},
		{"subiso", "pattern=chain3", random},
		{"subiso", "pattern=triangle", random},
		{"subiso", "pattern=star3", random},
		{"subiso", "pattern=follows-recommend", commerce},
		{"subiso", "pattern=co-recommend", commerce},
	}
	const wireWorkers = 3
	for _, c := range cases {
		e, err := engine.Lookup(c.program)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := e.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if pq.Hops != 1 {
			t.Fatalf("%s %q needs %d hops, not 1", c.program, c.query, pq.Hops)
		}
		for _, s := range []partition.Strategy{partition.Hash{}, partition.Fennel{}, partition.TwoD{}} {
			run := func(what string, opts engine.Options) {
				t.Helper()
				got, _, err := e.Run(context.Background(), c.g, opts, c.query)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				mustAgree(t, what, c.program, c.g, pq.Query, got)
				if empty(got) {
					t.Fatalf("%s: empty answer", what)
				}
			}
			for _, m := range []int{1, 3, 8} {
				run(fmt.Sprintf("%s %q %s m=%d bus", c.program, c.query, s.Name(), m), engine.Options{Workers: m, Strategy: s})
			}
			tr, finish := startSessionWorkers(t, wireWorkers)
			run(fmt.Sprintf("%s %q %s m=%d wire", c.program, c.query, s.Name(), wireWorkers), engine.Options{Workers: wireWorkers, Strategy: s, Transport: tr})
			finish()
		}
	}
}

func empty(res any) bool {
	switch r := res.(type) {
	case TriCountResult:
		return r.Total == 0
	case []seq.Match:
		return len(r) == 0
	}
	return false
}
