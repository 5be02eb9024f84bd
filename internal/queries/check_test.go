package queries

import (
	"context"
	"maps"
	"slices"
	"testing"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/seq"
)

// verdict is program's Entry.Check of got, an answer to the typed query q
// on g: its declared ground truth, the internal/seq answer under the class's
// Agree rule.
func verdict(program string, g *graph.Graph, q, got any) error {
	e, err := engine.Lookup(program)
	if err != nil {
		return err
	}
	return e.Check(g, engine.ParsedQuery{Program: program, Query: q}, got)
}

// mustAgree fails t unless verdict accepts got.
func mustAgree(t testing.TB, label, program string, g *graph.Graph, q, got any) {
	t.Helper()
	if err := verdict(program, g, q, got); err != nil {
		t.Fatalf("%s: %s differs from internal/seq: %v", label, program, err)
	}
}

// updatesOf converts a generated batch to engine updates.
func updatesOf(batch []gen.Update) []engine.EdgeUpdate {
	ups := make([]engine.EdgeUpdate, len(batch))
	for i, u := range batch {
		ups[i] = engine.EdgeUpdate{From: u.From, To: u.To, W: u.W, Label: u.Label, Del: u.Del}
	}
	return ups
}

// applyShadow replays an accepted batch on a shadow graph with the mutable
// API, in order, so a deletion takes the same first instance a session does.
func applyShadow(t testing.TB, shadow *graph.Graph, ups []engine.EdgeUpdate) {
	t.Helper()
	for _, u := range ups {
		if !u.Del {
			shadow.AddLabeledEdge(u.From, u.To, u.W, u.Label)
		} else if _, ok := shadow.RemoveEdge(u.From, u.To, u.Label); !ok {
			t.Fatalf("shadow has no edge %+v", u)
		}
	}
}

// TestEntryCheck holds every library class's Entry.Check to its contract on
// a small graph: it accepts the engine's own answer, rejects that answer
// perturbed in one place, and rejects an answer of the wrong type without
// panicking. MakeEntry refuses a Reference without an Agree, and a spec
// without a Reference leaves Check nil.
func TestEntryCheck(t *testing.T) {
	social := gen.PreferentialAttachment(300, 3, 2)
	gen.AttachKeywords(social, []string{"db", "graph"}, 2, 0.2, 2)
	commerce := gen.SocialCommerce(gen.SocialCommerceConfig{People: 120, Products: 6, Follows: 3, AdoptP: 0.9, Seed: 2})
	cases := []struct {
		program, query string
		g              *graph.Graph
		perturb        func(res any) any // a copy of res, wrong in one place
	}{
		{"sssp", "source=0", gen.RoadGrid(8, 8, 2), func(res any) any {
			m := maps.Clone(res.(map[graph.ID]float64))
			m[9]++
			return m
		}},
		{"cc", "", gen.Random(60, 50, 2), func(res any) any {
			m := maps.Clone(res.(map[graph.ID]graph.ID))
			m[7]++
			return m
		}},
		{"sim", "pattern=follows-recommend", commerce, func(res any) any {
			m := maps.Clone(res.(SimResult))
			m[2] = m[2][1:]
			return m
		}},
		{"subiso", "pattern=follows-recommend", commerce, func(res any) any {
			ms := slices.Clone(res.([]seq.Match))
			ms[0], ms[1] = ms[1], ms[0]
			return ms
		}},
		{"keyword", "k=db,graph bound=4", social, func(res any) any {
			ms := slices.Clone(res.([]seq.KeywordMatch))
			ms[0], ms[1] = ms[1], ms[0]
			return ms
		}},
		{"cf", "epochs=20", gen.Ratings(*ratingsGraph(2)), func(res any) any { // converged: within 10 % of seq
			r := res.(CFResult)
			r.RMSE *= 1.2
			return r
		}},
		{"tricount", "", social, func(res any) any {
			r := res.(TriCountResult)
			r.Total++
			return r
		}},
	}
	for _, c := range cases {
		t.Run(c.program, func(t *testing.T) {
			e, err := engine.Lookup(c.program)
			if err != nil {
				t.Fatal(err)
			}
			if e.Check == nil {
				t.Fatal("no Check: the class declares no ground truth")
			}
			pq, err := e.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := e.Run(context.Background(), c.g, engine.Options{Workers: 3}, c.query)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Check(c.g, pq, res); err != nil {
				t.Fatalf("the engine's answer: %v", err)
			}
			if err := e.Check(c.g, pq, c.perturb(res)); err == nil {
				t.Fatal("a perturbed answer passed")
			} else {
				t.Logf("perturbed: %v", err)
			}
			if err := e.Check(c.g, pq, struct{}{}); err == nil {
				t.Fatal("an answer of the wrong type passed")
			}
		})
	}

	spec := engine.EntrySpec[SSSPQuery, float64, map[graph.ID]float64]{Prog: SSSP{}, Parse: parseSSSP, Canonical: canonicalSSSP}
	if e := engine.MakeEntry(spec); e.Check != nil {
		t.Error("a spec without a Reference gave a Check")
	}
	spec.Reference = func(*graph.Graph, SSSPQuery) map[graph.ID]float64 { return nil }
	defer func() {
		if recover() == nil {
			t.Error("MakeEntry accepted a Reference without an Agree")
		}
	}()
	engine.MakeEntry(spec)
}
