package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/queries"
	"grape/internal/seq"
)

// fragments is the fragment/worker count of every workload: the serving
// default, and the count the earlier BENCH_PR*.json rows were taken at.
const fragments = 8

// scale sizes the generated datasets and the fixed op scripts. fullScale is
// what the benchmark measures; the test's smoke run swaps in a tiny one.
type scale struct {
	roadSide         int // RoadGrid rows = cols
	socialN          int // PreferentialAttachment vertices (out-degree 5)
	people, products int // SocialCommerce
	users, items     int // Ratings

	coldTriples    int // oneshot-cold: (sssp, cc, sim) triples per pass
	residentRounds int // resident-*: rounds of all 7 classes per pass
	hotOps         int // serve-hot: ops per client per pass
	churnRounds    int // serve-churn: rounds per graph per pass
	directHits     int // traced serve-hot: in-process Server.Query samples
}

// fullScale is the BENCH_PR10.json dataset scale, so ROADMAP's numbers stay
// comparable. Op counts are constants (never a time limit) so the exact
// counters repeat; each gives at least 100 ops and about two seconds of
// script per pass on a 2-core box.
var fullScale = scale{
	roadSide: 96, socialN: 10000, people: 2000, products: 20, users: 400, items: 80,
	coldTriples: 70, residentRounds: 18, hotOps: 600, churnRounds: 34, directHits: 50,
}

// datasets are the generated inputs of one invocation, all derived from the
// seed. The graphs are frozen and never mutated: workloads that mutate
// (serve-churn) work on clones.
type datasets struct {
	seed                            int64
	road, social, commerce, ratings *graph.Graph
}

func generate(seed int64, sc scale) *datasets {
	social := gen.PreferentialAttachment(sc.socialN, 5, seed)
	gen.AttachKeywords(social, []string{"db", "graph", "ml"}, 2, 0.05, seed)
	return &datasets{
		seed:     seed,
		road:     gen.RoadGrid(sc.roadSide, sc.roadSide, seed),
		social:   social.Freeze(),
		commerce: gen.SocialCommerce(gen.SocialCommerceConfig{People: sc.people, Products: sc.products, Follows: 4, AdoptP: 0.9, Seed: seed}).Freeze(),
		ratings:  gen.Ratings(gen.RatingsConfig{Users: sc.users, Items: sc.items, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: seed}).Freeze(),
	}
}

// seqAnswer computes a query's answer with the single-threaded internal/seq
// algorithm, in the engine's result type. q is the typed query an
// engine.Entry's Parse produced.
func seqAnswer(g *graph.Graph, q any) (any, error) {
	switch q := q.(type) {
	case queries.SSSPQuery:
		return seq.Dijkstra(g, q.Source), nil
	case queries.CCQuery:
		return seq.Components(g), nil
	case queries.SimQuery:
		return queries.SimResult(seq.Sim(q.Pattern, g)), nil
	case queries.SubIsoQuery:
		m, _ := seq.SubIso(q.Pattern, g, seq.SubIsoOptions{})
		return m, nil
	case queries.KeywordQuery:
		return seq.KeywordSearch(g, q.Keywords, q.Bound), nil
	case queries.CFQuery:
		f, rmse := seq.TrainCF(g, seq.UsersOf(g), q.Cfg)
		return queries.CFResult{RMSE: rmse, Factors: f}, nil
	case queries.TriCountQuery:
		return queries.TriCountResult{Total: queries.SeqTriangles(g)}, nil
	}
	return nil, fmt.Errorf("benchmark: no sequential baseline for query type %T", q)
}

// expected returns the digest every answer to q on g must have.
//
// For sssp, cc, sim and subiso the engine's answer equals the sequential one
// exactly, so the digest comes straight from internal/seq and ref is unused.
// keyword (float summation order), tricount (seq counts the total only) and
// cf (parameter averaging is not sequential SGD, so only its RMSE is held
// near seq's) are compared to seq semantically through ref — one engine
// answer from an untimed reference run — and then every op must digest equal
// to ref.
func expected(g *graph.Graph, q any, ref any) (uint64, error) {
	want, err := seqAnswer(g, q)
	if err != nil {
		return 0, err
	}
	switch want := want.(type) {
	case []seq.KeywordMatch:
		got, ok := ref.([]seq.KeywordMatch)
		if !ok || len(got) != len(want) {
			return 0, fmt.Errorf("keyword: reference run gave %d roots (%T), seq gives %d", len(got), ref, len(want))
		}
		for i := range want {
			if got[i].Root != want[i].Root || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				return 0, fmt.Errorf("keyword: rank %d is (%d, %g), seq gives (%d, %g)", i, got[i].Root, got[i].Score, want[i].Root, want[i].Score)
			}
		}
		return digest(ref), nil
	case queries.TriCountResult:
		got, ok := ref.(queries.TriCountResult)
		if !ok || got.Total != want.Total {
			return 0, fmt.Errorf("tricount: reference run counted %d (%T), seq counts %d", got.Total, ref, want.Total)
		}
		return digest(ref), nil
	case queries.CFResult:
		got, ok := ref.(queries.CFResult)
		// Across 60 seeds the two differ by up to 5.9 %; 10 % holds on all.
		if !ok || math.Abs(got.RMSE-want.RMSE) > 0.10*want.RMSE {
			return 0, fmt.Errorf("cf: reference run RMSE %g (%T) is not within 10%% of seq's %g", got.RMSE, ref, want.RMSE)
		}
		return digest(ref), nil
	}
	return digest(want), nil
}

// decodeResult parses the "result" field of a served answer into the
// program's result type. Only the classes the serve workloads query are
// decodable.
func decodeResult(program string, raw []byte) (any, error) {
	switch program {
	case "sssp":
		return decodeAs[map[graph.ID]float64](raw)
	case "cc":
		return decodeAs[map[graph.ID]graph.ID](raw)
	case "sim":
		return decodeAs[queries.SimResult](raw)
	case "subiso":
		return decodeAs[[]seq.Match](raw)
	}
	return nil, fmt.Errorf("benchmark: no result decoder for program %q", program)
}

func decodeAs[T any](raw []byte) (any, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// digest folds a result into 64 bits. Map-shaped and set-shaped results are
// folded order-independently (a sum of per-entry hashes), so Go's map order
// and the engine's match ranking do not matter; ranked lists are folded in
// order. An unknown type digests to 0 and a nil result to 1, neither of
// which a real answer produces.
func digest(res any) uint64 {
	switch r := res.(type) {
	case nil:
		return 1
	case map[graph.ID]float64:
		var h uint64
		for id, d := range r {
			h += mix(uint64(id), math.Float64bits(d))
		}
		return mix(h, uint64(len(r)))
	case map[graph.ID]graph.ID:
		var h uint64
		for id, c := range r {
			h += mix(uint64(id), uint64(c))
		}
		return mix(h, uint64(len(r)))
	case queries.SimResult:
		var h uint64
		for u, vs := range r {
			hv := uint64(len(vs))
			for _, v := range vs {
				hv = mix(hv, uint64(v))
			}
			h += mix(uint64(u), hv)
		}
		return mix(h, uint64(len(r)))
	case []seq.Match:
		var h uint64
		for _, m := range r {
			var hm uint64
			for u, v := range m {
				hm += mix(uint64(u), uint64(v))
			}
			h += mix(hm, uint64(len(m)))
		}
		return mix(h, uint64(len(r)))
	case []seq.KeywordMatch:
		h := uint64(len(r))
		for _, m := range r {
			h = mix(h, uint64(m.Root))
			h = mix(h, math.Float64bits(m.Score))
			for _, d := range m.Dists {
				h = mix(h, math.Float64bits(d))
			}
		}
		return h
	case queries.CFResult:
		var h uint64
		for id, vec := range r.Factors {
			hv := uint64(len(vec))
			for _, x := range vec {
				hv = mix(hv, math.Float64bits(x))
			}
			h += mix(uint64(id), hv)
		}
		return mix(h, math.Float64bits(r.RMSE))
	case queries.TriCountResult:
		var h uint64
		for id, n := range r.PerPivot {
			h += mix(uint64(id), uint64(n))
		}
		return mix(h, uint64(r.Total))
	}
	return 0
}

// mix hashes a pair of words (splitmix64 finalizer over a combination).
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b + 0x7f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sortedKeys returns m's keys in ascending order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
