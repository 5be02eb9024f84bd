package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// countdown is a minimal PIE program used to exercise the engine machinery
// in isolation. PEval stamps every local vertex with 64 + fragment index, so
// replicas of a border node disagree and the coordinator must route updates;
// each IncEval round halves the updated values, shipping the changes, until
// everything reaches 1. The aggregate is last-writer-wins, which no order
// holds to, so countdown declares none. With breakOrder it declares < and
// stamps 64 − fragment index instead, so the replicas' disagreement descends
// and the first change against the order is IncEval's raise, which the
// last writer does not absorb: the fold must refuse it.
type countdown struct {
	failPEval   bool
	failIncEval bool
	breakOrder  bool // violate the declared partial order on purpose
}

type cdQuery struct{}

func (countdown) Name() string { return "countdown" }

func (c countdown) Spec() VarSpec[int64] {
	spec := VarSpec[int64]{
		Default: 1 << 30,
		Agg:     func(a, b int64) int64 { return b }, // last writer wins
		Eq:      func(a, b int64) bool { return a == b },
	}
	if c.breakOrder {
		spec.Less = func(a, b int64) bool { return a < b }
	}
	return spec
}

func (c countdown) PEval(q cdQuery, ctx *Context[int64]) error {
	if c.failPEval {
		return errors.New("peval boom")
	}
	stamp := 64 + int64(ctx.Frag.Index)
	if c.breakOrder {
		stamp = 64 - int64(ctx.Frag.Index)
	}
	for _, v := range ctx.Frag.G.Vertices() {
		ctx.Set(v, stamp)
		ctx.AddWork(1)
	}
	return nil
}

func (c countdown) IncEval(q cdQuery, ctx *Context[int64]) error {
	if c.failIncEval {
		return errors.New("inceval boom")
	}
	for _, u := range ctx.Updated() {
		v := ctx.Get(u)
		if c.breakOrder {
			ctx.Set(u, v+1) // moves up the order: monotonicity violation
			continue
		}
		if v > 1 {
			ctx.Set(u, v/2)
		}
		ctx.AddWork(1)
	}
	return nil
}

func (countdown) Assemble(q cdQuery, ctxs []*Context[int64]) (map[graph.ID]int64, error) {
	out := map[graph.ID]int64{}
	for _, ctx := range ctxs {
		ctx.Vars(func(id graph.ID, v int64) {
			if ctx.Frag.IsInner(id) {
				out[id] = v
			}
		})
	}
	return out, nil
}

func TestEngineRunsToFixpoint(t *testing.T) {
	g := gen.Random(60, 180, 1)
	res, stats, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.NumVertices() {
		t.Fatalf("assembled %d of %d vertices", len(res), g.NumVertices())
	}
	if stats.Supersteps < 2 {
		t.Fatalf("halving needs several supersteps, got %d", stats.Supersteps)
	}
	if stats.WallTime <= 0 || len(stats.WorkPerStep) != stats.Supersteps {
		t.Fatalf("stats incomplete: %+v", stats)
	}
}

func TestEngineSurfacesPEvalError(t *testing.T) {
	g := gen.Random(20, 40, 1)
	_, _, err := Run(context.Background(), g, countdown{failPEval: true}, cdQuery{}, Options{Workers: 3})
	if err == nil || !contains(err.Error(), "peval boom") {
		t.Fatalf("want peval error, got %v", err)
	}
}

func TestEngineSurfacesIncEvalError(t *testing.T) {
	g := gen.Random(40, 120, 2)
	_, _, err := Run(context.Background(), g, countdown{failIncEval: true}, cdQuery{}, Options{Workers: 3})
	if err == nil || !contains(err.Error(), "inceval boom") {
		t.Fatalf("want inceval error, got %v", err)
	}
}

// TestEngineDetectsMonotonicityViolation: the refusal names the node and the
// change that broke the order, a raise.
func TestEngineDetectsMonotonicityViolation(t *testing.T) {
	g := gen.Random(40, 120, 3)
	_, _, err := Run(context.Background(), g, countdown{breakOrder: true}, cdQuery{}, Options{Workers: 3, MaxSupersteps: 50})
	if !errors.Is(err, ErrNotMonotonic) {
		t.Fatalf("want ErrNotMonotonic, got %v", err)
	}
	var node graph.ID
	var old, merged int64
	if _, serr := fmt.Sscanf(err.Error(), "engine: node %d: %d -> %d", &node, &old, &merged); serr != nil || !g.Has(node) || merged <= old {
		t.Fatalf("the refusal does not name a node's raise: %v", err)
	}
}

// TestOrderCheckedByDefault: no option turns the order check on or off. A
// program whose IncEval raises values against its declared order fails with
// ErrNotMonotonic under the zero Options — in a one-shot run and in a
// session's first fixpoint — rather than climbing to the superstep limit.
func TestOrderCheckedByDefault(t *testing.T) {
	g := gen.Random(40, 120, 3)
	if _, _, err := Run(context.Background(), g, countdown{breakOrder: true}, cdQuery{}, Options{}); !errors.Is(err, ErrNotMonotonic) {
		t.Fatalf("run: want ErrNotMonotonic, got %v", err)
	}
	if _, _, _, err := NewSession(context.Background(), g, countdown{breakOrder: true}, cdQuery{}, Options{}); !errors.Is(err, ErrNotMonotonic) {
		t.Fatalf("session: want ErrNotMonotonic, got %v", err)
	}
}

// TestUnhostedVertexRefused: a context holds variables only for the vertices
// its fragment graph holds. Setting any other — by ID, or by a dense index
// past the graph's vertices — panics, naming the vertex and the fragment;
// reading one returns the default.
func TestUnhostedVertexRefused(t *testing.T) {
	layout, err := BuildLayout(gen.Random(20, 60, 1), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := layout.Fragments[1]
	ctx := newContext(f, countdown{}.Spec())
	nv := int32(f.G.NumVertices())
	for name, set := range map[string]func(){
		"Set":        func() { ctx.Set(9999, 7) },
		"SetLocal":   func() { ctx.SetLocal(9999, 7) },
		"SetAt":      func() { ctx.SetAt(nv, 7) },
		"SetLocalAt": func() { ctx.SetLocalAt(nv+3, 7) },
	} {
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			set()
		}()
		if msg == "<nil>" {
			t.Fatalf("%s of an unhosted vertex did not panic", name)
		}
		if !strings.Contains(msg, "fragment 1") {
			t.Fatalf("%s: panic %q does not name the fragment", name, msg)
		}
	}
	if got := ctx.Get(9999); got != 1<<30 {
		t.Fatalf("Get of an unhosted vertex: %d, want the default", got)
	}
	n := 0
	ctx.Vars(func(graph.ID, int64) { n++ })
	if n != 0 || len(ctx.vals) != int(nv) {
		t.Fatalf("refused sets left %d variables, %d slots for %d vertices", n, len(ctx.vals), nv)
	}
}

func TestEngineSuperstepLimit(t *testing.T) {
	g := gen.Random(60, 180, 4)
	_, _, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 4, MaxSupersteps: 2})
	if !errors.Is(err, ErrSuperstepLimit) {
		t.Fatalf("want ErrSuperstepLimit, got %v", err)
	}
}

func TestEngineSingleWorkerNoTraffic(t *testing.T) {
	g := gen.Random(50, 150, 5)
	_, stats, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 || stats.Bytes != 0 {
		t.Fatalf("one worker has no border, but shipped %d msgs / %d bytes", stats.Messages, stats.Bytes)
	}
}

func TestEngineEmptyFragmentTolerated(t *testing.T) {
	// more workers than vertices: some fragments are empty
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	res, _, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want 3 assembled vertices, got %d", len(res))
	}
}

func TestEngineDeterministicStats(t *testing.T) {
	g := gen.Random(80, 240, 6)
	_, a, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Run(context.Background(), g, countdown{}, cdQuery{}, Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Supersteps != b.Supersteps || a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Fatalf("nondeterministic engine: %+v vs %+v", a, b)
	}
}

var registryTestSeq atomic.Int64

func TestRegistryLifecycle(t *testing.T) {
	// unique per invocation: the registry is process-global and -count=N
	// reruns the test in one process
	name := fmt.Sprintf("test-prog-registry-%d", registryTestSeq.Add(1))
	Register(Entry{
		Name:        name,
		Description: "test",
		Run: func(ctx context.Context, g *graph.Graph, opts Options, query string) (any, *metrics.Stats, error) {
			return query, &metrics.Stats{}, nil
		},
		Parse:    func(query string) (ParsedQuery, error) { return ParsedQuery{Program: name, Canonical: query}, nil },
		Resident: func(layout *partition.Layout, opts Options) (ResidentRunner, error) { return nil, nil },
		Session: func(ctx context.Context, g *graph.Graph, opts Options, pq ParsedQuery) (SessionHandle, any, *metrics.Stats, error) {
			return nil, nil, nil, nil
		},
		Validate: func(g *graph.Graph, pq ParsedQuery, ups []EdgeUpdate) error { return nil },
	})
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.Run(context.Background(), nil, Options{}, "hello")
	if err != nil || res != "hello" {
		t.Fatalf("entry run broken: %v %v", res, err)
	}
	found := false
	for _, le := range Library() {
		if le.Name == name {
			found = true
		}
	}
	if !found {
		t.Fatal("library listing missing the entry")
	}
	if _, err := Lookup("definitely-not-registered"); err == nil {
		t.Fatal("expected lookup error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(Entry{Name: name})
}

// TestContextRebind: a pooled context rebound larger → smaller → larger
// fragment is, after each reset, the context newContext builds for that
// fragment — arrays sized to it exactly, no variable or queued border change
// left over from the last one — and then behaves like it. The second sequence
// grows a context and then rebinds it to a size between its arrays' grown
// capacities, which Go rounds up apart (100 → 150 vertices leaves vals 224,
// has 208), so each array must be sized against its own.
func TestContextRebind(t *testing.T) {
	t.Run("shrink-grow", func(t *testing.T) { testContextRebind(t, 2, 300, 40, 500) })
	t.Run("grow-grow", func(t *testing.T) { testContextRebind(t, 1, 100, 150, 215) })
}

func testContextRebind(t *testing.T, workers int, sizes ...int) {
	spec := countdown{}.Spec()
	var frags []*partition.Fragment
	for i, n := range sizes {
		layout, err := BuildLayout(gen.Random(n, 3*n, int64(i)), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		f := layout.Fragments[0]
		if workers == 1 && f.G.NumVertices() != n {
			t.Fatalf("one-worker fragment of a %d-vertex graph has %d vertices", n, f.G.NumVertices())
		}
		frags = append(frags, f)
	}
	vars := func(c *Context[int64]) (out []int64) {
		c.VarsAt(func(i int32, v int64) { out = append(out, int64(i), v) })
		return out
	}
	// dirty sets every variable, queueing every border change
	dirty := func(c *Context[int64]) {
		for i := range int32(c.Frag.G.NumVertices()) {
			c.SetAt(i, int64(i))
		}
	}
	c := newContext(frags[0], spec)
	for _, f := range frags[1:] {
		dirty(c)
		c.reset(f)
		fresh := newContext(f, spec)
		nv := f.G.NumVertices()
		if len(c.vals) != nv || len(c.has) != nv || len(c.borderPos) != nv {
			t.Fatalf("fragment of %d vertices: rebound arrays have lengths %d, %d, %d", nv, len(c.vals), len(c.has), len(c.borderPos))
		}
		if c.Frag != f || !slices.Equal(vars(c), vars(fresh)) {
			t.Fatalf("fragment of %d vertices: rebound context holds %v, a fresh one %v", nv, vars(c), vars(fresh))
		}
		for i := range int32(nv) {
			if c.IsInnerAt(i) != fresh.IsInnerAt(i) || c.IsBorderAt(i) != fresh.IsBorderAt(i) {
				t.Fatalf("fragment of %d vertices: vertex %d inner/border %v/%v, fresh %v/%v", nv, i, c.IsInnerAt(i), c.IsBorderAt(i), fresh.IsInnerAt(i), fresh.IsBorderAt(i))
			}
		}
		if !slices.Equal(c.borderPos, fresh.borderPos) || !slices.Equal(c.changed, fresh.changed) || c.nb != fresh.nb || c.queued != fresh.queued {
			t.Fatalf("fragment of %d vertices: border bitmap differs from a fresh context's", nv)
		}
		dirty(c)
		dirty(fresh)
		if got, want := c.flush(), fresh.flush(); !slices.Equal(got, want) || !slices.Equal(vars(c), vars(fresh)) {
			t.Fatalf("fragment of %d vertices: rebound context flushed %v, a fresh one %v", nv, got, want)
		}
	}
}

func TestContextSemantics(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	asg := partition.NewAssignment(g, 2)
	asg.SetOwner(1, 0)
	asg.SetOwner(2, 1)
	asg.SetOwner(3, 1)
	layout := partition.Build(g, asg)
	spec := countdown{}.Spec()
	ctx := newContext(layout.Fragments[0], spec)

	// default until set
	if ctx.Get(1) != 1<<30 {
		t.Fatal("default value wrong")
	}
	// setting a non-border node queues nothing
	ctx.Set(1, 5)
	if len(ctx.flush()) != 0 {
		t.Fatal("non-border change should not ship")
	}
	// setting a border node (2 is outer in fragment 0) queues exactly once
	ctx.Set(2, 7)
	ctx.Set(2, 7) // idempotent
	ups := ctx.flush()
	if len(ups) != 1 || ctx.Frag.G.IDAt(ctx.Frag.BorderIndices()[ups[0].at]) != 2 || ups[0].val != 7 {
		t.Fatalf("border flush wrong: %v", ups)
	}
	if len(ctx.flush()) != 0 {
		t.Fatal("flush must clear the queue")
	}
	// SetLocal never ships
	ctx.SetLocal(2, 9)
	if len(ctx.flush()) != 0 {
		t.Fatal("SetLocal must not ship")
	}
	// apply folds with the aggregate and records only real changes
	at2, _ := ctx.Frag.G.Index(2)
	ctx.apply([]update[int64]{{at: at2, val: 9}}) // same value: no change
	if len(ctx.Updated()) != 0 {
		t.Fatalf("unchanged value must not count as an update: %v", ctx.Updated())
	}
	ctx.apply([]update[int64]{{at: at2, val: 3}})
	if !slices.Equal(ctx.Updated(), []graph.ID{2}) || ctx.Get(2) != 3 {
		t.Fatal("apply did not fold the improvement")
	}
	// work accounting drains
	ctx.AddWork(5)
	if ctx.takeWork() != 5 || ctx.takeWork() != 0 {
		t.Fatal("work accounting broken")
	}
	if !ctx.IsBorder(2) || ctx.IsBorder(1) {
		t.Fatal("IsBorder wrong")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
