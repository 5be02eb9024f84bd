// Command socialmarketing is the demo's second part (Fig. 4 / Example 2):
// given a social-commerce graph, evaluate the GPAR "if at least 80% of the
// people x follows recommend product y and none of them rates it badly,
// then x will likely buy y", and list the potential customers GRAPE
// discovers, ranked by rule confidence. It also reproduces the scalability
// claim — more workers, faster discovery.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"grape"
)

func main() {
	people := flag.Int("people", 3000, "number of people")
	products := flag.Int("products", 25, "number of products")
	seed := flag.Int64("seed", 7, "generator seed")
	flag.Parse()

	g := grape.SocialCommerce(*people, *products, *seed)
	fmt.Printf("social network: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	rule := grape.Example2Rule(0.8)
	res, stats, err := grape.EvalRule(context.Background(), g, rule, grape.Options{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rule %q:\n", res.Rule)
	fmt.Printf("  support (pairs matching the condition): %d\n", res.Support)
	fmt.Printf("  confidence (already bought / matched):  %.2f\n", res.Confidence)
	fmt.Printf("  potential customers (matched, not yet bought): %d\n", len(res.Candidates))
	max := 8
	if len(res.Candidates) < max {
		max = len(res.Candidates)
	}
	for _, c := range res.Candidates[:max] {
		fmt.Printf("    recommend product %d to person %d\n", c.Y, c.X)
	}
	fmt.Printf("  matching ran in %d superstep(s), %.4f MB shipped\n\n", stats.Supersteps, stats.MB())

	// Fig. 4's guarantee: the more workers, the faster.
	fmt.Println("scale-up (critical-path work units for the matching phase):")
	for _, n := range []int{1, 2, 4, 8, 16} {
		_, st, err := grape.EvalRule(context.Background(), g, rule, grape.Options{Workers: n})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d workers: %d\n", n, st.CriticalWork())
	}

	// Beyond evaluating a hand-written rule: mine the rule set itself and
	// rank what survives the support/confidence bars.
	fmt.Println("\nmined rules (support ≥ 5, confidence ≥ 0.3):")
	mined, err := grape.DiscoverRules(context.Background(), g, 5, 0.3, grape.Options{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range mined {
		fmt.Printf("  %-28s support %5d  confidence %.2f  candidates %d\n",
			r.Rule, r.Support, r.Confidence, len(r.Candidates))
	}
}
