package partition

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"grape/internal/graph"
)

// The fragment frame: what the socket substrate ships each worker at set-up
// (and an adopting worker at recovery). It is flat — a fixed header, three
// int32 sections that are byte for byte the fragment's own dense tables, and
// the local subgraph in graph's wire form (graph/flat.go) — so encoding is a
// handful of copies and decoding is a bounds check plus casts: the decoded
// fragment's arrays are views into the frame it arrived in.
//
// Layout (little-endian; every section starts 8-aligned relative to the
// first header byte, zero padding between):
//
//	offset  0  u32 magic "GRFG"
//	offset  4  u32 fragment index
//	offset  8  u32 fragment count N
//	offset 12  u32 |V| of the local subgraph
//	offset 16  u32 |Inner|
//	offset 20  u32 |Border| (outer copies and inner border vertices)
//	offset 24  owners    |V| × i32       fragment owning each local vertex
//	           innerIdx  |Inner| × i32   dense indices of the inner vertices, ascending by ID
//	           borderIdx |Border| × i32  dense indices of the border, ascending by ID
//	           graph     the local subgraph, graph.AppendFlat
//
// Vertex IDs travel once, in the graph's ID column; the two index lists name
// vertices by dense index into it, and a border vertex is an outer copy or
// an inner border vertex by its owner.

const (
	fragMagic     = 0x47465247 // "GRFG"
	fragHeaderLen = 24
)

// FrameSize is the measured length of f's frame: what AppendFragmentSized
// needs so the append walks the graph's strings no second time. It holds for f
// as measured; any change to f voids it.
type FrameSize struct {
	graphOff int
	flat     graph.FlatSize
}

// MeasureFrame measures the frame of f.
func MeasureFrame(f *Fragment) FrameSize {
	graphOff := graph.Align8(graph.Align8(graph.Align8(fragHeaderLen+4*len(f.owners))+4*len(f.innerIdx)) + 4*len(f.borderIdx))
	return FrameSize{graphOff, graph.MeasureFlat(f.G)}
}

// Len returns the exact number of bytes AppendFragment writes for the fragment.
func (s FrameSize) Len() int { return s.graphOff + s.flat.Len() }

// AppendFragment appends the frame of f to buf and returns the extended
// buffer; see AppendFragmentSized.
func AppendFragment(buf []byte, f *Fragment) []byte {
	return AppendFragmentSized(buf, f, MeasureFrame(f))
}

// AppendFragmentSized appends the frame of f, measured as size, to buf,
// growing it once to size.Len() more bytes, and returns the extended buffer.
// Sections are aligned relative to len(buf) at entry; see graph.AppendFlat.
func AppendFragmentSized(buf []byte, f *Fragment, size FrameSize) []byte {
	base := len(buf)
	innerIdx, borderIdx := f.innerIdx, f.borderIdx
	if f.sorted < len(borderIdx) { // a session grew the border: the frame lists it by ID
		borderIdx = slices.Clone(borderIdx)
		slices.SortFunc(borderIdx, func(a, b int32) int { return cmp.Compare(f.G.IDAt(a), f.G.IDAt(b)) })
	}
	buf = slices.Grow(buf, size.Len())
	le := binary.LittleEndian
	for _, v := range [...]int{fragMagic, f.Index, f.n, len(f.owners), len(innerIdx), len(borderIdx)} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	buf = graph.AppendSection(buf, base, graph.Int32Bytes(f.owners))
	buf = graph.AppendSection(buf, base, graph.Int32Bytes(innerIdx))
	buf = graph.AppendSection(buf, base, graph.Int32Bytes(borderIdx))
	buf = graph.AppendSection(buf, base, nil)
	return graph.AppendFlatSized(buf, f.G, size.flat)
}

// DecodeFragment decodes a frame written by AppendFragment from the front of
// data, returning the fragment and the number of bytes consumed. On a host
// that can alias (graph.CanAlias) and 8-aligned input, the fragment's
// ownership table, dense index caches and CSR arrays are views into data,
// which must stay alive and unmodified as long as the fragment; misaligned
// input is copied once first. Nothing is built: the graph's ID index waits
// for its first by-ID lookup, and the ascending index lists are the proof its
// IDs are distinct (see complete). Every count is checked against len(data)
// before anything is sized from it.
func DecodeFragment(data []byte) (*Fragment, int, error) {
	if len(data) < fragHeaderLen {
		return nil, 0, fmt.Errorf("partition: fragment frame truncated: %d header bytes", len(data))
	}
	le := binary.LittleEndian
	if le.Uint32(data) != fragMagic {
		return nil, 0, fmt.Errorf("partition: not a fragment frame (bad magic)")
	}
	idx, n, nv := int(le.Uint32(data[4:])), int(le.Uint32(data[8:])), int(le.Uint32(data[12:]))
	ni, nb := int(le.Uint32(data[16:])), int(le.Uint32(data[20:]))
	if idx >= n || nv >= math.MaxInt32 || ni > nv || nb > nv {
		return nil, 0, fmt.Errorf("partition: fragment frame claims fragment %d of %d, %d inner and %d border of %d vertices", idx, n, ni, nb, nv)
	}
	ownersOff := fragHeaderLen
	innerOff := graph.Align8(ownersOff + 4*nv)
	borderOff := graph.Align8(innerOff + 4*ni)
	graphOff := graph.Align8(borderOff + 4*nb)
	if graphOff > len(data) {
		return nil, 0, fmt.Errorf("partition: fragment frame truncated: sections need %d of %d bytes", graphOff, len(data))
	}
	data = graph.Realigned(data)
	f := &Fragment{
		Index:     idx,
		n:         n,
		owners:    graph.ViewInt32s(data[ownersOff : ownersOff+4*nv]),
		innerIdx:  graph.ViewInt32s(data[innerOff : innerOff+4*ni]),
		borderIdx: graph.ViewInt32s(data[borderOff : borderOff+4*nb]),
	}
	_, used, err := graph.DecodeFlatProven(data[graphOff:], func(g *graph.Graph) error {
		if g.NumVertices() != nv {
			return fmt.Errorf("partition: fragment frame covers %d vertices, its graph has %d", nv, g.NumVertices())
		}
		f.G = g
		return complete(f)
	})
	if err != nil {
		return nil, 0, err
	}
	return f, graphOff + used, nil
}

// complete finishes a fragment that has its subgraph and the three dense
// tables a frame carries (and a cut computes), checking them against G and
// each other: owners in range, the inner list exactly the vertices owned
// here, both index lists strictly ascending by ID, and every vertex inner or
// an outer copy on the border. Merging the inner list with the border's outer
// copies then proves G's vertex IDs distinct, in linear time and without G's
// ID index. Nothing is derived and nothing allocated: IDs are read from G.
func complete(f *Fragment) error {
	g, idx, owners, innerIdx, borderIdx := f.G, int32(f.Index), f.owners, f.innerIdx, f.borderIdx
	f.sorted = len(borderIdx)
	owned := 0
	for i, w := range owners {
		if w < 0 || int(w) >= f.n {
			return fmt.Errorf("partition: vertex %d owned by out-of-range worker %d", g.IDAt(int32(i)), w)
		}
		if w == idx {
			owned++
		}
	}
	if err := ascendingIDs(g, innerIdx); err != nil {
		return fmt.Errorf("partition: inner list: %w", err)
	}
	for _, i := range innerIdx {
		if owners[i] != idx {
			return fmt.Errorf("partition: inner vertex %d is owned by worker %d", g.IDAt(i), owners[i])
		}
	}
	if owned != len(innerIdx) {
		return fmt.Errorf("partition: fragment owns %d local vertices but lists %d inner", owned, len(innerIdx))
	}
	if err := ascendingIDs(g, borderIdx); err != nil {
		return fmt.Errorf("partition: border list: %w", err)
	}
	outer := 0
	for _, i := range borderIdx {
		if owners[i] != idx {
			outer++
		}
	}
	if len(innerIdx)+outer != len(owners) {
		return fmt.Errorf("partition: %d inner and %d outer of %d vertices", len(innerIdx), outer, len(owners))
	}
	// merge the ascending inner list with the border's outer copies
	a, b := innerIdx, borderIdx
	for len(a) > 0 && len(b) > 0 {
		if owners[b[0]] == idx {
			b = b[1:]
			continue
		}
		switch x, y := g.IDAt(a[0]), g.IDAt(b[0]); {
		case x < y:
			a = a[1:]
		case y < x:
			b = b[1:]
		default:
			return fmt.Errorf("partition: vertex ID %d repeats", x)
		}
	}
	return nil
}

// ascendingIDs checks that every entry of idx is a dense index of g and that
// the vertex IDs there strictly ascend (so the list is duplicate-free and
// binary-searchable).
func ascendingIDs(g *graph.Graph, idx []int32) error {
	nv := int32(g.NumVertices())
	for k, i := range idx {
		if i < 0 || i >= nv {
			return fmt.Errorf("dense index %d of %d", i, nv)
		}
		if k > 0 && g.IDAt(i) <= g.IDAt(idx[k-1]) {
			return fmt.Errorf("vertex %d after %d, not ascending", g.IDAt(i), g.IDAt(idx[k-1]))
		}
	}
	return nil
}
