package densepath

// A by-ID lookup on the fragment graph inside a PIE body builds that graph's
// ID index; on the frozen path that is every fragment on every run. The
// fragment's own one-off lookup, and the thawed fallback, stay quiet.

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
	if g := f.G; g.Frozen() {
		i, ok := g.Index(q.Source) // want "Graph.Index in PEval looks a vertex up by ID on the frozen path"
		if j, found := f.Local(q.Source); found && ok {
			c.SetAt(i+j, 0)
		}
		return nil
	}
	if f.G.Has(q.Source) {
		c.Set(q.Source, 0)
	}
	return nil
}

func (Lookup) IncEval(q Query, f *Fragment, c *Context) error {
	if !f.G.Has(q.Source) { // want "Graph.Has in IncEval looks a vertex up by ID on the frozen path"
		return nil
	}
	//grapevet:keep fixture: a lookup that is measured and wanted
	i, _ := f.G.Index(q.Source)
	c.SetAt(i, 1)
	return nil
}

// ApplyUpdate enters with an ID per update: the lookup is the boundary.
func (Lookup) ApplyUpdate(q Query, f *Fragment, c *Context) error {
	if i, ok := f.G.Index(q.Source); ok {
		c.SetAt(i, 2)
	}
	return nil
}

func (Lookup) Assemble(q Query, fs []*Fragment) (n int) {
	for _, f := range fs {
		if f.G.Frozen() {
			if i, ok := f.Local(q.Source); ok {
				n += int(i)
			}
			continue
		}
		if f.G.Has(q.Source) {
			n++
		}
	}
	return n
}
