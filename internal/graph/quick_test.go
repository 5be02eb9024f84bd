package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

// op is one randomized mutation for the model-based property test.
type op struct {
	Kind    uint8
	U, V    uint8
	W       uint8
	Label   bool
	PropTag uint8
}

// TestGraphModelProperty replays random operation sequences against the
// Graph and a trivial model (edge list + vertex map), then checks every
// observable agrees: vertex/edge counts, adjacency in both directions,
// labels, and Validate.
func TestGraphModelProperty(t *testing.T) {
	f := func(ops []op) bool {
		g := New()
		type edge struct {
			u, v ID
			w    float64
		}
		var modelEdges []edge
		modelVerts := map[ID]string{}

		for _, o := range ops {
			u, v := ID(o.U%32), ID(o.V%32)
			switch o.Kind % 3 {
			case 0: // add vertex
				label := ""
				if o.Label {
					label = "L"
				}
				g.AddVertex(u, label)
				if old, ok := modelVerts[u]; !ok || label != "" {
					_ = old
					if _, ok := modelVerts[u]; !ok {
						modelVerts[u] = label
					} else if label != "" {
						modelVerts[u] = label
					}
				}
			case 1: // add edge
				w := float64(o.W) + 1
				g.AddEdge(u, v, w)
				modelEdges = append(modelEdges, edge{u, v, w})
				if _, ok := modelVerts[u]; !ok {
					modelVerts[u] = ""
				}
				if _, ok := modelVerts[v]; !ok {
					modelVerts[v] = ""
				}
			case 2: // add property
				g.AddVertex(u, "")
				g.AddProp(u, "p")
				if _, ok := modelVerts[u]; !ok {
					modelVerts[u] = ""
				}
			}
		}
		if g.NumVertices() != len(modelVerts) {
			return false
		}
		if g.NumEdges() != len(modelEdges) {
			return false
		}
		// out-degree per vertex matches the model
		outDeg := map[ID]int{}
		inDeg := map[ID]int{}
		for _, e := range modelEdges {
			outDeg[e.u]++
			inDeg[e.v]++
		}
		for id, lbl := range modelVerts {
			if !g.Has(id) || g.Label(id) != lbl {
				return false
			}
			if len(g.Out(id)) != outDeg[id] || len(g.In(id)) != inDeg[id] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeProperty replays random operation sequences through the
// one-operation mutators and through a Builder, and checks that the two
// graphs agree on every observable — Out/In adjacency, labels, properties,
// vertex and edge counts — exactly, that the dense accessors agree with the
// boundary API, and that the graph round-trips through the wire codec
// byte-for-byte.
func TestFreezeProperty(t *testing.T) {
	f := func(ops []op) bool {
		g, bg := New(), NewBuilder()
		for _, o := range ops {
			u, v := ID(o.U%32), ID(o.V%32)
			switch o.Kind % 3 {
			case 0:
				label := ""
				if o.Label {
					label = "L" + string(rune('a'+o.PropTag%3))
				}
				g.AddVertex(u, label)
				bg.AddVertex(u, label)
			case 1:
				label := []string{"", "x", "y"}[o.PropTag%3]
				g.AddLabeledEdge(u, v, float64(o.W)+1, label)
				bg.AddLabeledEdge(u, v, float64(o.W)+1, label)
			case 2:
				p := "p" + string(rune('0'+o.PropTag%4))
				g.AddVertex(u, "")
				g.AddProp(u, p)
				bg.AddVertex(u, "")
				bg.AddProp(u, p)
			}
		}
		fz := g.Freeze()
		built := bg.Graph()
		if err := fz.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		if err := Diff(built, fz); err != nil {
			t.Logf("diff: %v", err)
			return false
		}
		for _, v := range built.Vertices() {
			if !reflect.DeepEqual(fz.In(v), built.In(v)) {
				return false
			}
		}
		// dense accessors agree with the boundary API
		for i := int32(0); i < int32(fz.NumVertices()); i++ {
			id := fz.IDAt(i)
			if fz.LabelName(fz.LabelIDAt(i)) != fz.Label(id) {
				return false
			}
			out := fz.Out(id)
			if len(out) != fz.OutDegreeAt(i) {
				return false
			}
			for k, e := range fz.OutAt(i) {
				if fz.IDAt(e.To) != out[k].To || e.W != out[k].W || fz.LabelName(e.Label) != out[k].Label {
					return false
				}
			}
			in := fz.In(id)
			if len(in) != fz.InDegreeAt(i) {
				return false
			}
			for k, e := range fz.InAt(i) {
				if fz.IDAt(e.To) != in[k].To || e.W != in[k].W || fz.LabelName(e.Label) != in[k].Label {
					return false
				}
			}
		}
		// wire form: FlatLen is its length, and the decode (which aliases
		// the sections) is indistinguishable and re-encodes to it
		flat := AppendFlat(nil, fz)
		if len(flat) != FlatLen(fz) {
			return false
		}
		dec, used, err := DecodeFlat(flat)
		if err != nil || used != len(flat) {
			return false
		}
		if dec.Validate() != nil || Diff(fz, dec) != nil {
			return false
		}
		return reflect.DeepEqual(AppendFlat(nil, dec), flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSymmetrizedProperty: every edge of the symmetrized graph has its
// mirror, and degrees double (minus nothing: mirrors are always added).
func TestSymmetrizedProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := New()
		for _, p := range pairs {
			g.AddEdge(ID(p>>8), ID(p&0xff), 1)
		}
		s := g.Symmetrized()
		if s.NumEdges() != 2*g.NumEdges() {
			return false
		}
		for _, u := range s.Vertices() {
			for _, e := range s.Out(u) {
				found := false
				for _, back := range s.Out(e.To) {
					if back.To == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
