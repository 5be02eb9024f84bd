package graph

import "fmt"

// CSRData is the flat form of a Graph: exactly the arrays Builder.Graph
// builds, exposed so a storage layer can lay them out in a file and hand them
// back without re-deriving anything. The fixed-width slices (IDs, VLabels,
// OutOff, OutDense, InOff, InDense) are the mmap-able half — FromMapped
// aliases them as given, so they may point into a read-only file mapping.
// The string-bearing half (Labels, Props) is always heap-resident; FromMapped
// reconstructs the label intern map from it.
type CSRData struct {
	Directed bool
	// NumEdges is the logical edge count (undirected edges count once; the
	// adjacency arrays store both directions, so it is not derivable).
	NumEdges int
	IDs      []ID        // dense index -> sparse vertex ID
	VLabels  []int32     // dense index -> interned vertex label
	OutOff   []int32     // len NumVertices+1; OutOff[0] == 0
	OutDense []DenseEdge // packed out-edges in dense source order
	InOff    []int32     // reverse CSR offsets; empty for undirected graphs
	InDense  []DenseEdge // packed in-edges; empty for undirected graphs
	Labels   []string    // intern table (vertex and edge labels share it)
	Props    [][]string  // dense index -> vertex properties; nil if none anywhere
}

// CSRView returns the graph's flat form, deriving the reverse CSR of a
// directed graph if nothing has yet. The returned slices alias the graph's
// internal arrays and are read-only.
func (g *Graph) CSRView() CSRData {
	d := g.outView()
	if g.directed {
		r := g.reverse()
		d.InOff, d.InDense = r.off, r.dense
	}
	return d
}

// outView is CSRView without the reverse CSR: all the wire form ships.
func (g *Graph) outView() CSRData {
	d := CSRData{
		Directed: g.directed,
		NumEdges: g.numEdges,
		IDs:      g.ids,
		VLabels:  g.vlab,
		OutOff:   g.outOff,
		OutDense: g.outDense,
		Labels:   g.labelNames,
	}
	for _, ps := range g.props {
		if len(ps) > 0 {
			d.Props = g.props
			break
		}
	}
	return d
}

// FromMapped constructs a Graph from its flat form: the fixed-width slices of
// d are aliased as-is (they may live in a read-only mmap or a received frame
// — the graph never writes through them; a splice builds new arrays on the
// heap), and only the label
// intern map is rebuilt on the heap. The ID index is built on the first
// by-ID lookup, and a directed d without InOff/InDense (the wire form does not
// ship them) derives its reverse CSR on first use, like any graph.
// Every array is bounds-checked first, so corrupt input errors instead of
// panicking later, and repeated vertex IDs are rejected: in one pass when the
// IDs ascend in dense order, otherwise by building the ID index now.
func FromMapped(d CSRData) (*Graph, error) { return fromMapped(d, distinctIDs) }

// distinctIDs proves a graph's vertex IDs distinct: by one pass when they
// ascend in dense order (a generator's graphs and their snapshots), else by
// building the ID index — kept for the first lookup — and counting it.
func distinctIDs(g *Graph) error {
	for k := 1; k < len(g.ids); k++ {
		if g.ids[k] <= g.ids[k-1] {
			if n := len(g.idIndex()); n != len(g.ids) {
				return fmt.Errorf("graph: mapped vertex IDs repeat (%d distinct of %d)", n, len(g.ids))
			}
			return nil
		}
	}
	return nil
}

// fromMapped is FromMapped with the proof of distinct vertex IDs supplied:
// it runs once every array is bounds-checked.
func fromMapped(d CSRData, distinct func(*Graph) error) (*Graph, error) {
	nv := len(d.IDs)
	ne := len(d.OutDense)
	nl := len(d.Labels)
	if len(d.VLabels) != nv {
		return nil, fmt.Errorf("graph: mapped vlab covers %d of %d vertices", len(d.VLabels), nv)
	}
	if len(d.OutOff) != nv+1 {
		return nil, fmt.Errorf("graph: mapped outOff has %d entries, want %d", len(d.OutOff), nv+1)
	}
	if d.Props != nil && len(d.Props) != nv {
		return nil, fmt.Errorf("graph: mapped props cover %d of %d vertices", len(d.Props), nv)
	}
	if err := checkOffsets(d.OutOff, ne); err != nil {
		return nil, fmt.Errorf("graph: mapped out CSR: %w", err)
	}
	if err := checkDense(d.OutDense, nv, nl); err != nil {
		return nil, fmt.Errorf("graph: mapped out CSR: %w", err)
	}
	deriveIn := d.Directed && d.InOff == nil && d.InDense == nil
	switch {
	case deriveIn:
	case d.Directed:
		if len(d.InOff) != nv+1 || len(d.InDense) != ne {
			return nil, fmt.Errorf("graph: mapped reverse CSR has %d offsets / %d edges, want %d / %d",
				len(d.InOff), len(d.InDense), nv+1, ne)
		}
		if err := checkOffsets(d.InOff, ne); err != nil {
			return nil, fmt.Errorf("graph: mapped in CSR: %w", err)
		}
		if err := checkDense(d.InDense, nv, nl); err != nil {
			return nil, fmt.Errorf("graph: mapped in CSR: %w", err)
		}
	case len(d.InOff) != 0 || len(d.InDense) != 0:
		return nil, fmt.Errorf("graph: mapped undirected graph carries a reverse CSR")
	}

	g := &Graph{
		directed:   d.Directed,
		ids:        d.IDs,
		props:      d.Props,
		numEdges:   d.NumEdges,
		outOff:     d.OutOff,
		outDense:   d.OutDense,
		vlab:       d.VLabels,
		labelNames: d.Labels,
		labelIDs:   make(map[string]int32, nl),
		lazy:       &lazyViews{},
	}
	if d.Directed && !deriveIn {
		g.lazy.revOnce.Do(func() { g.lazy.rev.Store(&revCSR{d.InOff, d.InDense}) })
	}
	for i, s := range d.Labels {
		g.labelIDs[s] = int32(i)
	}
	if len(g.labelIDs) != nl {
		return nil, fmt.Errorf("graph: mapped labels repeat (%d distinct of %d)", len(g.labelIDs), nl)
	}
	for i, l := range d.VLabels {
		if l < 0 || int(l) >= nl {
			return nil, fmt.Errorf("graph: mapped vertex %d has label id %d of %d", i, l, nl)
		}
	}
	if err := distinct(g); err != nil {
		return nil, err
	}
	return g, nil
}

// checkOffsets validates a CSR offset array: starts at 0, monotone, and
// covers exactly ne packed edges.
func checkOffsets(off []int32, ne int) error {
	if off[0] != 0 {
		return fmt.Errorf("offsets start at %d", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("offsets not monotone at %d", i)
		}
	}
	if int(off[len(off)-1]) != ne {
		return fmt.Errorf("offsets cover %d of %d edges", off[len(off)-1], ne)
	}
	return nil
}

// checkDense validates a packed edge array against the vertex and label
// counts, so the dense accessors and the sparse views can index unchecked.
func checkDense(dense []DenseEdge, nv, nl int) error {
	for k, e := range dense {
		if e.To < 0 || int(e.To) >= nv {
			return fmt.Errorf("packed edge %d targets dense index %d of %d", k, e.To, nv)
		}
		if e.Label < 0 || int(e.Label) >= nl {
			return fmt.Errorf("packed edge %d has label id %d of %d", k, e.Label, nl)
		}
	}
	return nil
}
