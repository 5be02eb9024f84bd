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
//	offset 20  u32 |Border| (Outer ∪ InnerBorder)
//	offset 24  owners    |V| × i32       fragment owning each local vertex
//	           innerIdx  |Inner| × i32   dense indices of Inner, ascending by ID
//	           borderIdx |Border| × i32  dense indices of Border(), ascending by ID
//	           graph     the local subgraph, graph.AppendFlat
//
// Outer and InnerBorder are not shipped: they are Border() split by
// ownership (an outer copy is owned elsewhere, an inner border vertex here).

const (
	fragMagic     = 0x47465247 // "GRFG"
	fragHeaderLen = 24
)

// FrameLen returns the exact number of bytes AppendFragment writes for f.
func FrameLen(f *Fragment) int {
	graphOff := graph.Align8(graph.Align8(graph.Align8(fragHeaderLen+4*len(f.owners))+4*len(f.innerIdx)) + 4*len(f.borderIdx))
	return graphOff + graph.FlatLen(f.G)
}

// AppendFragment appends the frame of f to buf, growing it once to FrameLen(f)
// more bytes, and returns the extended buffer. Sections are aligned relative
// to len(buf) at entry; see graph.AppendFlat.
func AppendFragment(buf []byte, f *Fragment) []byte {
	base := len(buf)
	innerIdx, borderIdx := f.InnerIndices(), f.BorderIndices()
	if f.sorted < len(borderIdx) { // a session grew the border: the frame lists it by ID
		borderIdx = slices.Clone(borderIdx)
		slices.SortFunc(borderIdx, func(a, b int32) int { return cmp.Compare(f.G.IDAt(a), f.G.IDAt(b)) })
	}
	buf = slices.Grow(buf, FrameLen(f))
	le := binary.LittleEndian
	for _, v := range [...]int{fragMagic, f.Index, f.n, len(f.owners), len(f.Inner), len(f.Outer) + len(f.InnerBorder)} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	buf = graph.AppendSection(buf, base, graph.Int32Bytes(f.owners))
	buf = graph.AppendSection(buf, base, graph.Int32Bytes(innerIdx))
	buf = graph.AppendSection(buf, base, graph.Int32Bytes(borderIdx))
	buf = graph.AppendSection(buf, base, nil)
	return graph.AppendFlat(buf, f.G)
}

// DecodeFragment decodes a frame written by AppendFragment from the front of
// data, returning the fragment and the number of bytes consumed. On a host
// that can alias (graph.CanAlias) and 8-aligned input, the fragment's
// ownership table, dense index caches and CSR arrays are views into data,
// which must stay alive and unmodified as long as the fragment; misaligned
// input is copied once first. Only the ID lists and the inner bitmap are
// built — the graph's ID index waits for its first by-ID lookup, and the
// lists are the proof its IDs are distinct (see complete). Every count is
// checked against len(data) before anything is sized from it.
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
// tables a frame carries (and a cut computes). It checks them against G and
// each other — owners in range, Inner exactly the vertices owned here, both
// index lists strictly ascending by ID, every vertex inner or an outer copy —
// and derives what is not carried: the ID lists (one allocation, each list
// capped so a later AddOuter reallocates) and the inner bitmap. Merging the
// ascending Inner and Outer then proves G's vertex IDs distinct, in linear
// time and without G's ID index.
func complete(f *Fragment) error {
	g, idx, owners, innerIdx, borderIdx := f.G, f.Index, f.owners, f.innerIdx, f.borderIdx
	ni, nb := len(innerIdx), len(borderIdx)
	ids := make([]graph.ID, ni+2*nb)
	f.Inner, f.border, f.sorted = ids[:ni:ni], ids[ni:ni+nb:ni+nb], nb
	f.innerAt = make([]bool, len(owners))
	owned := 0
	for i, w := range owners {
		if w < 0 || int(w) >= f.n {
			return fmt.Errorf("partition: vertex %d owned by out-of-range worker %d", g.IDAt(int32(i)), w)
		}
		if int(w) == idx {
			owned++
		}
	}
	if err := ascendingIDs(g, innerIdx, f.Inner); err != nil {
		return fmt.Errorf("partition: inner list: %w", err)
	}
	for _, i := range innerIdx {
		if int(owners[i]) != idx {
			return fmt.Errorf("partition: inner vertex %d is owned by worker %d", g.IDAt(i), owners[i])
		}
		f.innerAt[i] = true
	}
	if owned != ni {
		return fmt.Errorf("partition: fragment owns %d local vertices but lists %d inner", owned, ni)
	}
	if err := ascendingIDs(g, borderIdx, f.border); err != nil {
		return fmt.Errorf("partition: border list: %w", err)
	}
	nib := 0
	for _, i := range borderIdx {
		if f.innerAt[i] {
			nib++
		}
	}
	f.InnerBorder, f.Outer = ids[ni+nb:][:0:nib], ids[ni+nb+nib:][:0]
	for k, i := range borderIdx {
		if f.innerAt[i] {
			f.InnerBorder = append(f.InnerBorder, f.border[k])
		} else {
			f.Outer = append(f.Outer, f.border[k])
		}
	}
	if ni+len(f.Outer) != len(owners) {
		return fmt.Errorf("partition: %d inner and %d outer of %d vertices", ni, len(f.Outer), len(owners))
	}
	return disjoint(f.Inner, f.Outer)
}

// disjoint merges two ascending ID lists and errors on an ID in both.
func disjoint(a, b []graph.ID) error {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case b[0] < a[0]:
			b = b[1:]
		default:
			return fmt.Errorf("partition: vertex ID %d repeats", a[0])
		}
	}
	return nil
}

// ascendingIDs resolves a list of dense indices of g to vertex IDs, written
// to ids, checking that every index is in range and the IDs strictly ascend
// (so the list is duplicate-free and binary-searchable).
func ascendingIDs(g *graph.Graph, idx []int32, ids []graph.ID) error {
	nv := int32(g.NumVertices())
	for k, i := range idx {
		if i < 0 || i >= nv {
			return fmt.Errorf("dense index %d of %d", i, nv)
		}
		ids[k] = g.IDAt(i)
		if k > 0 && ids[k] <= ids[k-1] {
			return fmt.Errorf("vertex %d after %d, not ascending", ids[k], ids[k-1])
		}
	}
	return nil
}
