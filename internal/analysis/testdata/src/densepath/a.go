// Package densepath exercises the densepath analyzer with a miniature of the
// engine's accessor shape: a Context offering sparse by-ID methods next to
// dense ...At twins, and PIE-named method bodies using them.
package densepath

type Graph struct{}

type Context struct {
	G     *Graph
	vals  map[int64]float64
	dense []float64
}

func (c *Context) Get(id int64) float64     { return c.vals[id] }
func (c *Context) GetAt(i int32) float64    { return c.dense[i] }
func (c *Context) Set(id int64, v float64)  { c.vals[id] = v }
func (c *Context) SetAt(i int32, v float64) { c.dense[i] = v }

type Prog struct{}

// PEval stays on the dense accessors.
func (Prog) PEval(c *Context) error {
	c.SetAt(0, 1)
	return nil
}

// IncEval reaches for the sparse accessors — the violation, wherever it sits.
func (Prog) IncEval(c *Context) error {
	c.Set(2, 2) // want "Context.Set in IncEval hashes per call"
	if c.GetAt(0) > 0 {
		_ = c.Get(4) // want "Context.Get in IncEval hashes per call"
	}
	return nil
}

// Assemble shows the escape hatch: an annotated keep.
func (Prog) Assemble(c *Context) error {
	//grapevet:keep fixture: a measured sparse call
	c.Set(3, 3)
	return nil
}

// The engine's per-update bodies address vertices by position: a lookup by
// ID inside one is flagged, the same lookup at the boundary is not.

func (g *Graph) Index(id int64) (int32, bool) { return int32(id), true }

type Layout struct{ slots map[int64]int32 }

func (l *Layout) SlotOf(id int64) (int32, bool) { s, ok := l.slots[id]; return s, ok }

type update struct {
	id int64
	at int32
}

func (c *Context) apply(ups []update) {
	for _, u := range ups {
		i, _ := c.G.Index(u.id) // want "Graph.Index in apply looks a vertex up by ID once per update"
		c.dense[i]++
		c.dense[u.at]++
	}
}

type fold struct{ l *Layout }

func (f *fold) buildRoute(ups []update) (n int32) {
	for _, u := range ups {
		s, _ := f.l.SlotOf(u.id) // want "Layout.SlotOf in buildRoute looks a vertex up by ID once per update"
		//grapevet:keep fixture: a boundary call that happens to live in a per-update body
		t, _ := f.l.SlotOf(u.id)
		n += s + t
	}
	return n
}

// lookup enters with an ID: that is what SlotOf is for.
func (f *fold) lookup(id int64) int32 {
	s, _ := f.l.SlotOf(id)
	return s
}
