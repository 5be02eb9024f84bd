package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"grape/internal/gen"
)

// keepCtx is countdown under a name of its own, keeping the context its
// fragment 0 ran PEval on: a context is part of the run scratch RunOnLayout
// recycles.
type keepCtx struct {
	countdown
	last **Context[int64]
}

func (keepCtx) Name() string { return "keep-ctx" }

func (k keepCtx) PEval(q cdQuery, ctx *Context[int64]) error {
	if ctx.Frag.Index == 0 {
		*k.last = ctx
	}
	return k.countdown.PEval(q, ctx)
}

// TestRunScratchLivesOneCollection: a run's scratch, idle after the run,
// survives one collection and serves the next run; two collections free it,
// so a caller that stops querying holds no run memory, and the heap the
// benchmark reads after two collections holds none either. The collector
// runs only when the test calls it.
func TestRunScratchLivesOneCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what is put into it under the race detector")
	}
	layout, err := BuildLayout(gen.Random(400, 1200, 1), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last *Context[int64]
	run := func() weak.Pointer[Context[int64]] {
		t.Helper()
		if _, _, err := RunOnLayout(context.Background(), layout, keepCtx{last: &last}, cdQuery{}, Options{}); err != nil {
			t.Fatal(err)
		}
		w := weak.Make(last)
		last = nil
		return w
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	w := run()
	runtime.GC()
	if w.Value() == nil {
		t.Fatal("one collection freed the idle run scratch")
	}
	if again := run(); again != w {
		t.Fatal("the run after one collection did not reuse the idle run scratch")
	}
	runtime.GC()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("two collections left the idle run scratch reachable")
	}
}
