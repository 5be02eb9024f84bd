// Package gpar implements graph pattern association rules — the social-media
// marketing application of the demo's second part (Fig. 4, Example 2). A
// GPAR Q(x, y) ⇒ p(x, y) says: when the topological condition Q holds around
// designated nodes x and y, then the association p(x, y) (e.g. "x buys y")
// is likely. GRAPE evaluates GPARs by parallelizing the SubIso PIE program;
// the paper's guarantee — more workers, faster discovery — is experiment E6.
//
// Example 2's rule is quantified: "if at least 80% of the people x follows
// recommend product y, and none of them rates y badly, then x is a potential
// buyer of y". Quantifiers (percentages over the followee set) go beyond
// plain subgraph isomorphism, so Rule carries an optional Quantifier that the
// coordinator checks once per distinct candidate pair after the distributed
// matching phase.
package gpar

import (
	"context"
	"fmt"
	"sort"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/queries"
)

// Rule is a graph pattern association rule Q(x, y) ⇒ p(x, y).
type Rule struct {
	// Name identifies the rule in reports.
	Name string
	// Q is the pattern; X and Y are its designated vertices.
	Q    *graph.Graph
	X, Y graph.ID
	// Consequent is the edge label predicted between the images of X and Y
	// (e.g. "buy").
	Consequent string
	// Quantifier, if non-nil, further filters candidate (x, y) pairs; it
	// receives the data graph view local to the match. Example 2's ≥80%
	// condition lives here.
	Quantifier func(g *graph.Graph, x, y graph.ID) bool
}

// Candidate is a discovered potential association: the rule fired for
// (X=Cx, Y=Cy) and the consequent edge is absent.
type Candidate struct {
	X, Y graph.ID
}

// Result ranks candidates of one rule.
type Result struct {
	Rule string
	// Candidates are the potential customers (pairs matched but consequent
	// absent), sorted.
	Candidates []Candidate
	// Support is the number of (x, y) pairs matching Q.
	Support int
	// Confidence is |pairs with consequent| / |pairs matching Q| — how
	// trustworthy the rule is on this graph.
	Confidence float64
}

// Eval evaluates a rule on g with the GRAPE SubIso program and returns
// confidence-annotated candidates. Matching work is distributed exactly like
// any SubIso query: fragments expanded to the pattern radius, one parallel
// superstep.
func Eval(ctx context.Context, g *graph.Graph, r Rule, opts engine.Options) (*Result, *metrics.Stats, error) {
	if r.Q == nil || !r.Q.Has(r.X) || !r.Q.Has(r.Y) {
		return nil, nil, fmt.Errorf("gpar: rule %q: pattern must contain designated nodes", r.Name)
	}
	matches, stats, err := queries.RunSubIso(ctx, g, queries.SubIsoQuery{Pattern: r.Q}, opts)
	if err != nil {
		return nil, nil, err
	}
	// Distinct (x, y) pairs matching Q.
	type pair = Candidate
	pairs := make(map[pair]bool)
	for _, m := range matches {
		pairs[pair{m[r.X], m[r.Y]}] = true
	}
	res := &Result{Rule: r.Name}
	withConsequent := 0
	var candidates []Candidate
	sorted := make([]pair, 0, len(pairs))
	for p := range pairs {
		sorted = append(sorted, p)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	for _, p := range sorted {
		if r.Quantifier != nil && !r.Quantifier(g, p.X, p.Y) {
			continue
		}
		res.Support++
		if hasLabeledEdge(g, p.X, p.Y, r.Consequent) {
			withConsequent++
		} else {
			candidates = append(candidates, Candidate(p))
		}
	}
	if res.Support > 0 {
		res.Confidence = float64(withConsequent) / float64(res.Support)
	}
	res.Candidates = candidates
	return res, stats, nil
}

// EvalAll evaluates a set of rules and returns results sorted by confidence
// (descending) — the demo's ranked recommendation list.
func EvalAll(ctx context.Context, g *graph.Graph, rules []Rule, opts engine.Options) ([]*Result, error) {
	var out []*Result
	for _, r := range rules {
		res, _, err := Eval(ctx, g, r, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Rule < out[j].Rule
	})
	return out, nil
}

// DiscoverConfig bounds rule mining.
type DiscoverConfig struct {
	// MinSupport drops rules matching fewer than this many (x, y) pairs.
	MinSupport int
	// MinConfidence drops rules below this confidence.
	MinConfidence float64
	// MinFracs are the quantifier thresholds to try for percentage rules.
	MinFracs []float64
}

// DefaultDiscoverConfig mines with the thresholds of the demo scenario.
func DefaultDiscoverConfig() DiscoverConfig {
	return DiscoverConfig{MinSupport: 5, MinConfidence: 0.3, MinFracs: []float64{0.5, 0.8}}
}

// Discover mines GPARs from a social-commerce graph: it enumerates a space
// of candidate rules built from the schema's vocabulary (direct
// recommendation, co-recommendation, and quantified majority-of-followees
// rules at several thresholds), evaluates each with the distributed SubIso
// machinery, and returns the rules passing the support and confidence bars,
// ranked by confidence — the paper's "given a set of GPARs, GRAPE
// efficiently finds potential customers ranked by confidence", with the
// rule set itself discovered rather than hand-written.
func Discover(ctx context.Context, g *graph.Graph, cfg DiscoverConfig, opts engine.Options) ([]*Result, error) {
	rules := CandidateRules(cfg.MinFracs)
	all, err := EvalAll(ctx, g, rules, opts)
	if err != nil {
		return nil, err
	}
	var kept []*Result
	for _, r := range all {
		if r.Support >= cfg.MinSupport && r.Confidence >= cfg.MinConfidence {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// CandidateRules enumerates the mining search space over the
// social-commerce schema.
func CandidateRules(minFracs []float64) []Rule {
	var rules []Rule

	// direct: x recommends y ⇒ x buys y
	direct := graph.NewBuilder()
	direct.AddVertex(0, gen.LabelPerson)
	direct.AddVertex(2, gen.LabelProduct)
	direct.AddLabeledEdge(0, 2, 1, gen.EdgeRecommend)
	rules = append(rules, Rule{
		Name: "recommender-buys", Q: direct.Graph(), X: 0, Y: 2, Consequent: gen.EdgeBuy,
	})

	// social proof: x follows someone who recommends y ⇒ x buys y
	social := graph.NewBuilder()
	social.AddVertex(0, gen.LabelPerson)
	social.AddVertex(1, gen.LabelPerson)
	social.AddVertex(2, gen.LabelProduct)
	social.AddLabeledEdge(0, 1, 1, gen.EdgeFollow)
	social.AddLabeledEdge(1, 2, 1, gen.EdgeRecommend)
	rules = append(rules, Rule{
		Name: "one-followee-recommends", Q: social.Graph(), X: 0, Y: 2, Consequent: gen.EdgeBuy,
	})

	// two independent recommenders among followees
	double := graph.NewBuilder()
	double.AddVertex(0, gen.LabelPerson)
	double.AddVertex(1, gen.LabelPerson)
	double.AddVertex(3, gen.LabelPerson)
	double.AddVertex(2, gen.LabelProduct)
	double.AddLabeledEdge(0, 1, 1, gen.EdgeFollow)
	double.AddLabeledEdge(0, 3, 1, gen.EdgeFollow)
	double.AddLabeledEdge(1, 2, 1, gen.EdgeRecommend)
	double.AddLabeledEdge(3, 2, 1, gen.EdgeRecommend)
	rules = append(rules, Rule{
		Name: "two-followees-recommend", Q: double.Graph(), X: 0, Y: 2, Consequent: gen.EdgeBuy,
	})

	// quantified majority rules (Example 2 at several thresholds)
	for _, frac := range minFracs {
		r := Example2Rule(frac)
		r.Name = fmt.Sprintf("majority-%.0f%%-recommend", frac*100)
		rules = append(rules, r)
	}
	return rules
}

func hasLabeledEdge(g *graph.Graph, from, to graph.ID, label string) bool {
	i, ok := g.Index(from)
	if !ok {
		return false
	}
	for _, e := range g.OutAt(i) {
		if g.IDAt(e.To) == to && g.LabelName(e.Label) == label {
			return true
		}
	}
	return false
}

// Example2Rule is the rule of the paper's Example 2 / Fig. 4: if among the
// people followed by x, at least minFrac recommend product y and nobody
// rates it badly, x is a potential buyer of y. The pattern is the minimal
// topological skeleton (x follows someone who recommends y); the percentage
// and no-bad-rating conditions are the quantifier.
func Example2Rule(minFrac float64) Rule {
	q := graph.NewBuilder()
	q.AddVertex(0, gen.LabelPerson)  // x
	q.AddVertex(1, gen.LabelPerson)  // a followee
	q.AddVertex(2, gen.LabelProduct) // y
	q.AddLabeledEdge(0, 1, 1, gen.EdgeFollow)
	q.AddLabeledEdge(1, 2, 1, gen.EdgeRecommend)
	return Rule{
		Name:       "example2-huawei-mate9",
		Q:          q.Graph(),
		X:          0,
		Y:          2,
		Consequent: gen.EdgeBuy,
		Quantifier: func(g *graph.Graph, x, y graph.ID) bool {
			xi, ok := g.Index(x)
			if !ok {
				return false
			}
			followees := 0
			recommenders := 0
			for _, e := range g.OutAt(xi) {
				if g.LabelName(e.Label) != gen.EdgeFollow {
					continue
				}
				followees++
				recommends := false
				for _, fe := range g.OutAt(e.To) {
					if g.IDAt(fe.To) != y {
						continue
					}
					switch g.LabelName(fe.Label) {
					case gen.EdgeRecommend:
						recommends = true
					case gen.EdgeRateBad:
						return false // a followee rates y badly
					}
				}
				if recommends {
					recommenders++
				}
			}
			return followees > 0 && float64(recommenders) >= minFrac*float64(followees)
		},
	}
}
