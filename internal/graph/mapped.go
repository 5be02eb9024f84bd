package graph

import "fmt"

// csrData is the flat form of a Graph as DecodeFlat reads it: exactly the
// arrays Builder.Graph builds and the wire form ships. The fixed-width slices (IDs, VLabels,
// OutOff, OutDense) are the half fromFlat aliases as given, so they may point
// into a read-only file mapping or a received frame. The string-bearing half
// (Labels and the property column) is always heap-resident; fromFlat
// rebuilds the label intern map from it.
type csrData struct {
	Directed bool
	// NumEdges is the logical edge count (undirected edges count once; the
	// adjacency arrays store both directions, so it is not derivable).
	NumEdges int
	IDs      []ID        // dense index -> sparse vertex ID
	VLabels  []int32     // dense index -> interned vertex label
	OutOff   []int32     // len NumVertices+1; OutOff[0] == 0
	OutDense []DenseEdge // packed out-edges in dense source order
	Labels   []string    // intern table (vertex and edge labels share it)
	PropOff  []int32     // the property column, as Graph holds it; nil if none anywhere
	PropVals []string
}

// distinctIDs proves a graph's vertex IDs distinct: by one pass when they
// ascend in dense order (a generator's graphs and their snapshots), else by
// building the ID index — kept for the first lookup — and counting it.
func distinctIDs(g *Graph) error {
	for k := 1; k < len(g.ids); k++ {
		if g.ids[k] <= g.ids[k-1] {
			if n := len(g.idIndex()); n != len(g.ids) {
				return fmt.Errorf("graph: flat form vertex IDs repeat (%d distinct of %d)", n, len(g.ids))
			}
			return nil
		}
	}
	return nil
}

// fromFlat constructs a Graph from its flat form: the fixed-width slices of
// d are aliased as-is (the graph never writes through them; a splice patches
// over them, and folds into new arrays on the heap), and only the label intern map is rebuilt on the
// heap. The ID index is built on the first by-ID lookup, and a directed
// graph derives its reverse CSR on first use, like any graph. Every array is
// bounds-checked first, so corrupt input errors instead of panicking later;
// then distinct proves the vertex IDs distinct.
func fromFlat(d csrData, distinct func(*Graph) error) (*Graph, error) {
	nv := len(d.IDs)
	ne := len(d.OutDense)
	nl := len(d.Labels)
	if len(d.VLabels) != nv {
		return nil, fmt.Errorf("graph: flat form vlab covers %d of %d vertices", len(d.VLabels), nv)
	}
	if len(d.OutOff) != nv+1 {
		return nil, fmt.Errorf("graph: flat form outOff has %d entries, want %d", len(d.OutOff), nv+1)
	}
	if err := checkOffsets(d.OutOff, ne); err != nil {
		return nil, fmt.Errorf("graph: flat form out CSR: %w", err)
	}
	if err := checkDense(d.OutDense, nv, nl); err != nil {
		return nil, fmt.Errorf("graph: flat form out CSR: %w", err)
	}

	g := &Graph{
		directed:   d.Directed,
		ids:        d.IDs,
		propOff:    d.PropOff,
		propVals:   d.PropVals,
		numEdges:   d.NumEdges,
		outOff:     d.OutOff,
		outDense:   d.OutDense,
		vlab:       d.VLabels,
		labelNames: d.Labels,
		labelIDs:   make(map[string]int32, nl),
		lazy:       &lazyViews{},
	}
	for i, s := range d.Labels {
		g.labelIDs[s] = int32(i)
	}
	if len(g.labelIDs) != nl {
		return nil, fmt.Errorf("graph: flat form labels repeat (%d distinct of %d)", len(g.labelIDs), nl)
	}
	for i, l := range d.VLabels {
		if l < 0 || int(l) >= nl {
			return nil, fmt.Errorf("graph: flat form vertex %d has label id %d of %d", i, l, nl)
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
// counts, so the dense accessors, Out and In can index unchecked.
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
