package densepath

// A by-ID lookup on the fragment graph inside a PIE body builds that graph's
// ID index: every fragment on every run. The fragment's own one-off lookup
// stays quiet.

func (g *Graph) Has(id int64) bool { _, ok := g.Index(id); return ok }

type Fragment struct {
	G     *Graph
	inner []int64
}

func (f *Fragment) Local(id int64) (int32, bool) {
	for k, v := range f.inner {
		if v == id {
			return int32(k), true
		}
	}
	return 0, false
}

type Query struct{ Source int64 }

type Lookup struct{}

func (Lookup) PEval(q Query, f *Fragment, c *Context) error {
	i, ok := f.G.Index(q.Source) // want "Graph.Index in PEval looks a vertex up by ID"
	if j, found := f.Local(q.Source); found && ok {
		c.SetAt(i+j, 0)
	}
	return nil
}

func (Lookup) IncEval(q Query, f *Fragment, c *Context) error {
	if !f.G.Has(q.Source) { // want "Graph.Has in IncEval looks a vertex up by ID"
		return nil
	}
	//grapevet:keep fixture: a lookup that is measured and wanted
	i, _ := f.G.Index(q.Source)
	c.SetAt(i, 1)
	return nil
}

// RepairBatch enters with an ID per update: the lookup is the boundary.
func (Lookup) RepairBatch(q Query, f *Fragment, c *Context) error {
	if i, ok := f.G.Index(q.Source); ok {
		c.SetAt(i, 2)
	}
	return nil
}

func (Lookup) Assemble(q Query, fs []*Fragment) (n int) {
	for _, f := range fs {
		if i, ok := f.Local(q.Source); ok {
			n += int(i)
		}
	}
	return n
}
