// Command plugplay demonstrates GRAPE's headline claim: plugging an
// existing sequential algorithm into the engine with only two additions —
// an update-parameter declaration and an aggregate function.
//
// The plugged-in algorithm is sequential BFS reachability ("which vertices
// can the source reach?"). The PIE program below is the textbook algorithm
// plus a VarSpec saying "the variable is a boolean, aggregated by OR,
// monotonically increasing false -> true". Everything else — partitioning,
// message routing, termination detection, assembly — is the engine's job.
package main

import (
	"context"
	"fmt"
	"log"

	"grape"
)

// ReachQuery asks which vertices are reachable from Source.
type ReachQuery struct {
	Source grape.ID
}

// Reach is the PIE program. PEval is sequential BFS on the fragment;
// IncEval is the same BFS restarted from border vertices that just became
// reachable — incremental and bounded (it never revisits settled vertices).
type Reach struct{}

// Name identifies the program.
func (Reach) Name() string { return "reach" }

// Spec is the two additions: the update parameter — a reachability bit,
// false by default — and its aggregate, OR; Less is the order the bits
// descend along, the Assurance condition every fold checks. The bool type
// brings equality, wire format and traffic size.
func (Reach) Spec() grape.VarSpec[bool] {
	return grape.VarSpec[bool]{
		Default: false,
		Agg:     func(a, b bool) bool { return a || b },
		Less:    func(a, b bool) bool { return a && !b }, // true < false in "more reached" order
	}
}

// bfs marks everything reachable from the seeds and charges work.
func bfs(ctx *grape.Context[bool], seeds []grape.ID) {
	queue := append([]grape.ID(nil), seeds...)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range ctx.Frag.G.Out(u) {
			ctx.AddWork(1)
			if !ctx.Get(e.To) {
				ctx.Set(e.To, true)
				queue = append(queue, e.To)
			}
		}
	}
}

// PEval is plain sequential BFS from the source, if it lives here.
func (Reach) PEval(q ReachQuery, ctx *grape.Context[bool]) error {
	//grapevet:keep the plugged-in algorithm is by-ID throughout: Set and Out below need the ID index anyway
	if !ctx.Frag.G.Has(q.Source) {
		return nil
	}
	ctx.Set(q.Source, true)
	bfs(ctx, []grape.ID{q.Source})
	return nil
}

// IncEval restarts BFS from the border vertices that just turned reachable.
func (Reach) IncEval(q ReachQuery, ctx *grape.Context[bool]) error {
	bfs(ctx, ctx.Updated())
	return nil
}

// Assemble unions the per-fragment reachable sets, reading variables and
// testing ownership by dense index — no per-vertex hash.
func (Reach) Assemble(q ReachQuery, ctxs []*grape.Context[bool]) (map[grape.ID]bool, error) {
	out := make(map[grape.ID]bool)
	for _, ctx := range ctxs {
		g := ctx.Frag.G
		ctx.VarsAt(func(i int32, v bool) {
			if v && ctx.IsInnerAt(i) {
				out[g.IDAt(i)] = true
			}
		})
	}
	return out, nil
}

func main() {
	ctx := context.Background()
	g := grape.SocialNetwork(5000, 3, 11)
	reached, stats, err := grape.Run(ctx, g, Reach{}, ReachQuery{Source: 0},
		grape.Options{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vertex 0 reaches %d of %d vertices\n", len(reached), g.NumVertices())
	fmt.Printf("%d supersteps, %d messages, %.4f MB — all parallelism handled by the engine\n",
		stats.Supersteps, stats.Messages, stats.MB())

	// The same program can be registered and then driven by name, exactly
	// like the built-in library: MakeEntry derives the whole registry hook
	// set (by-name runs, query parsing, resident serving) from the program
	// and its parse/canonical pair. A program that also encodes its query
	// (EncodeQuery, DecodeQuery) gains distributed runs from the same spec.
	grape.Register(grape.MakeEntry(grape.EntrySpec[ReachQuery, bool, map[grape.ID]bool]{
		Prog:        Reach{},
		Description: "BFS reachability (plug-and-play example)",
		QueryHelp:   "source=<id>",
		Parse: func(query string) (ReachQuery, error) {
			var src int64
			if _, err := fmt.Sscanf(query, "source=%d", &src); err != nil {
				return ReachQuery{}, fmt.Errorf("reach: bad query %q: %v", query, err)
			}
			return ReachQuery{Source: grape.ID(src)}, nil
		},
		Canonical: func(q ReachQuery) string { return fmt.Sprintf("source=%d", q.Source) },
	}))
	// RunProgramAs returns the typed result — no `any` assertion at the
	// call site.
	res, _, err := grape.RunProgramAs[map[grape.ID]bool](ctx, "reach", g, grape.Options{Workers: 4}, "source=42")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via registry: vertex 42 reaches %d vertices\n", len(res))
}
