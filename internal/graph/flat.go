package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// The flat codec: a graph as 8-aligned, fixed-width, little-endian
// sections that are byte for byte the arrays the graph holds, plus one
// string section for everything string-shaped. AppendFlat / DecodeFlat put
// them behind a small header as the graph wire form, the one byte layout of a
// graph: pattern blobs, the core of partition's fragment frame, and the body
// of internal/store's snapshot file all carry it. Reading is a bounds check
// and a cast: on a little-endian host whose DenseEdge is packed like the
// format, sections alias memory in both directions; any other host — or
// misaligned input — transparently takes a copy, and the bytes are identical
// either way.
//
// Wire form (all integers little-endian; every section starts 8-aligned
// relative to the first header byte, zero padding between):
//
//	offset  0  u32 magic "GRFL"
//	offset  4  u32 flags (bit 0: directed)
//	offset  8  u32 |V|
//	offset 12  u32 packed edge count (both directions for undirected graphs)
//	offset 16  u64 |E| (logical; undirected edges count once)
//	offset 24  u32 byte length of the string section
//	offset 28  u32 zero
//	offset 32  strs     label table and sparse vertex properties, uvarint-coded
//	           ids      |V| × i64
//	           vlab     |V| × i32
//	           outOff   (|V|+1) × i32
//	           outDense packed × {u32 dense target, u32 interned label, f64 weight}
//
// The reverse CSR is not shipped: the decoded graph derives it by counting
// sort if a kernel asks for in-edges, which costs less than moving 16 bytes
// per edge through a socket or onto disk.

const (
	flatMagic     = 0x4c465247 // "GRFL"
	flatHeaderLen = 32
	flatDirected  = 1
)

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var denseEdgePacked = unsafe.Sizeof(DenseEdge{}) == 16 &&
	unsafe.Offsetof(DenseEdge{}.To) == 0 &&
	unsafe.Offsetof(DenseEdge{}.Label) == 4 &&
	unsafe.Offsetof(DenseEdge{}.W) == 8

// CanAlias reports whether typed slices may alias section bytes directly on
// this host.
func CanAlias() bool { return hostLittleEndian && denseEdgePacked }

func sliceBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// bytesSlice casts section bytes to a typed slice whose capacity equals its
// length, so an append to it can never write into the next section.
func bytesSlice[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(z)))
}

// idBytes returns the section bytes of an ID array (write path).
func idBytes(v []ID) []byte {
	if CanAlias() {
		return sliceBytes(v)
	}
	buf := make([]byte, 0, len(v)*8)
	for _, id := range v {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// Int32Bytes returns the section bytes of an int32 array (write path).
func Int32Bytes(v []int32) []byte {
	if CanAlias() {
		return sliceBytes(v)
	}
	buf := make([]byte, 0, len(v)*4)
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// denseBytes returns the section bytes of a packed edge array (write path).
func denseBytes(v []DenseEdge) []byte {
	if CanAlias() {
		return sliceBytes(v)
	}
	buf := make([]byte, 0, len(v)*16)
	for _, e := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Label))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	return buf
}

// viewIDs returns the typed view of an ID section (read path). Where the host
// can alias, b must be 8-aligned and stay alive and unmodified as long as the
// returned slice.
func viewIDs(b []byte) []ID {
	if CanAlias() {
		return bytesSlice[ID](b)
	}
	v := make([]ID, len(b)/8)
	for i := range v {
		v[i] = ID(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

// ViewInt32s is viewIDs for an int32 section.
func ViewInt32s(b []byte) []int32 {
	if CanAlias() {
		return bytesSlice[int32](b)
	}
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}

// viewDense is viewIDs for a packed edge section.
func viewDense(b []byte) []DenseEdge {
	if CanAlias() {
		return bytesSlice[DenseEdge](b)
	}
	v := make([]DenseEdge, len(b)/16)
	for i := range v {
		e := b[i*16:]
		v[i] = DenseEdge{
			To:    int32(binary.LittleEndian.Uint32(e)),
			Label: int32(binary.LittleEndian.Uint32(e[4:])),
			W:     math.Float64frombits(binary.LittleEndian.Uint64(e[8:])),
		}
	}
	return v
}

// Align8 rounds n up to the next multiple of 8.
func Align8(n int) int { return (n + 7) &^ 7 }

// AlignedBuf allocates an n-byte buffer whose base address is 8-aligned, so
// sections at 8-aligned offsets in it can be viewed without copying.
func AlignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// Realigned returns b itself when its base address is 8-aligned, so sections
// at 8-aligned offsets can be viewed in place, and an aligned copy otherwise.
func Realigned(b []byte) []byte {
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))&7 == 0 {
		return b
	}
	return append(AlignedBuf(len(b))[:0], b...)
}

// AppendSection zero-pads buf until its length past base is a multiple of 8,
// then appends sec.
func AppendSection(buf []byte, base int, sec []byte) []byte {
	var pad [8]byte
	buf = append(buf, pad[:Align8(len(buf)-base)-(len(buf)-base)]...)
	return append(buf, sec...)
}

// appendStrings appends the string section of d: the label-intern table,
// then the sparse property entries (uvarint dense index, uvarint count,
// strings), one per vertex with properties, in ascending dense order. Strings
// are uvarint length + raw bytes.
func appendStrings(buf []byte, d csrData) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.Labels)))
	for _, s := range d.Labels {
		buf = appendString(buf, s)
	}
	off := d.PropOff
	entries := 0
	for v := 1; v < len(off); v++ {
		if off[v-1] < off[v] {
			entries++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(entries))
	for v := 1; v < len(off); v++ {
		if off[v-1] == off[v] {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(v-1))
		buf = binary.AppendUvarint(buf, uint64(off[v]-off[v-1]))
		for _, p := range d.PropVals[off[v-1]:off[v]] {
			buf = appendString(buf, p)
		}
	}
	return buf
}

// stringsLen returns the length of the string section appendStrings writes.
func stringsLen(d csrData) int {
	n, entries := 0, 0
	str := func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
	for _, s := range d.Labels {
		n += str(s)
	}
	for _, p := range d.PropVals {
		n += str(p)
	}
	off := d.PropOff
	for v := 1; v < len(off); v++ {
		if k := off[v] - off[v-1]; k > 0 {
			entries++
			n += uvarintLen(uint64(v-1)) + uvarintLen(uint64(k))
		}
	}
	return n + uvarintLen(uint64(len(d.Labels))) + uvarintLen(uint64(entries))
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// parseStrings decodes a string section for a graph of nv vertices into the
// label table and the property column (both nil when no vertex has a
// property). The section is copied to the heap once and every label and
// property is a substring of that copy (strings cannot alias a mapping that
// may be unmapped, or a frame), so decoding allocates per section, not per
// string or per vertex. Every count is checked against the bytes that remain
// before anything is sized from it, and property entries must name vertices
// in ascending order, each with at least one property — as appendStrings
// writes them — so a section decodes only from its one encoding.
func parseStrings(data []byte, nv int) (labels []string, propOff []int32, propVals []string, err error) {
	all := string(data)
	pos := 0
	str := func() (string, error) {
		n, err := ReadUvarint(data, &pos)
		if err != nil {
			return "", err
		}
		if uint64(len(data)-pos) < n {
			return "", fmt.Errorf("wire: truncated string at offset %d", pos)
		}
		pos += int(n)
		return all[pos-int(n) : pos], nil
	}
	nl, err := ReadUvarint(data, &pos)
	if err != nil {
		return nil, nil, nil, err
	}
	if nl > uint64(len(data)-pos) {
		return nil, nil, nil, fmt.Errorf("implausible label count %d", nl)
	}
	labels = make([]string, nl)
	for i := range labels {
		if labels[i], err = str(); err != nil {
			return nil, nil, nil, err
		}
	}
	entries, err := ReadUvarint(data, &pos)
	if err != nil {
		return nil, nil, nil, err
	}
	if entries > uint64(len(data)-pos)/2 {
		return nil, nil, nil, fmt.Errorf("implausible property entry count %d", entries)
	}
	if entries > 0 {
		// Two walks over the entries: the first checks them and counts the
		// values, the second fills a value array of exactly that size and
		// each entry's count, which a running sum then turns into offsets.
		propOff = make([]int32, nv+1)
		from, total := pos, 0
		for walk := range 2 {
			pos = from
			next := uint64(0) // the least vertex the next entry may name
			for range entries {
				idx, err := ReadUvarint(data, &pos)
				if err != nil {
					return nil, nil, nil, err
				}
				if idx < next || idx >= uint64(nv) {
					return nil, nil, nil, fmt.Errorf("property entry for vertex %d, want one in [%d, %d)", idx, next, nv)
				}
				next = idx + 1
				np, err := ReadUvarint(data, &pos)
				if err != nil {
					return nil, nil, nil, err
				}
				if np == 0 || np > uint64(len(data)-pos) {
					return nil, nil, nil, fmt.Errorf("implausible property count %d", np)
				}
				propOff[idx+1], total = int32(np), total+int(np)
				for j := uint64(0); j < np; j++ {
					p, err := str()
					if err != nil {
						return nil, nil, nil, err
					}
					if walk == 1 {
						propVals = append(propVals, p)
					}
				}
			}
			if walk == 0 {
				propVals = make([]string, 0, total)
			}
		}
		for i := range nv {
			propOff[i+1] += propOff[i]
		}
	}
	if pos != len(data) {
		return nil, nil, nil, fmt.Errorf("%d trailing bytes in string section", len(data)-pos)
	}
	return labels, propOff, propVals, nil
}

// flatLayout returns the offsets of the fixed-width sections of a wire form
// with the given counts (relative to its first header byte; the string
// section sits at flatHeaderLen) and its total length, a multiple of 8.
func flatLayout(nv, nd, strs uint64) (ids, vlab, outOff, outDense, total uint64) {
	a8 := func(v uint64) uint64 { return (v + 7) &^ 7 }
	ids = a8(flatHeaderLen + strs)
	vlab = ids + nv*8
	outOff = a8(vlab + nv*4)
	outDense = a8(outOff + (nv+1)*4)
	return ids, vlab, outOff, outDense, outDense + nd*16
}

// FlatSize is the measured length of g's wire form: what AppendFlatSized
// needs so the append walks g's strings no second time. It holds for g as
// measured; any change to g voids it.
type FlatSize struct{ strs, total int }

// MeasureFlat measures the wire form of g.
func MeasureFlat(g *Graph) FlatSize {
	d := g.flatView()
	strs := stringsLen(d)
	_, _, _, _, total := flatLayout(uint64(len(d.IDs)), uint64(len(d.OutDense)), uint64(strs))
	return FlatSize{strs, int(total)}
}

// Len returns the exact number of bytes AppendFlat writes for the graph.
func (s FlatSize) Len() int { return s.total }

// AppendFlat appends the wire form of g to buf and returns the extended
// buffer; see AppendFlatSized.
func AppendFlat(buf []byte, g *Graph) []byte { return AppendFlatSized(buf, g, MeasureFlat(g)) }

// AppendFlatSized appends the wire form of g, measured as size, to buf and
// returns the extended buffer, growing it once to size.Len() more bytes: the
// small string section first, then one copy per fixed-width section. Sections
// are aligned relative to len(buf) at entry — a caller that wants the decoder
// to alias them places that offset 8-aligned in an 8-aligned buffer.
func AppendFlatSized(buf []byte, g *Graph, size FlatSize) []byte {
	d := g.flatView()
	buf = slices.Grow(buf, size.total)
	base := len(buf)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, flatMagic)
	var flags uint32
	if d.Directed {
		flags = flatDirected
	}
	buf = le.AppendUint32(buf, flags)
	buf = le.AppendUint32(buf, uint32(len(d.IDs)))
	buf = le.AppendUint32(buf, uint32(len(d.OutDense)))
	buf = le.AppendUint64(buf, uint64(d.NumEdges))
	buf = le.AppendUint64(buf, uint64(size.strs))
	buf = appendStrings(buf, d)
	buf = AppendSection(buf, base, idBytes(d.IDs))
	buf = AppendSection(buf, base, Int32Bytes(d.VLabels))
	buf = AppendSection(buf, base, Int32Bytes(d.OutOff))
	return AppendSection(buf, base, denseBytes(d.OutDense))
}

// DecodeFlat decodes a wire form from the front of data, returning the
// graph and the number of bytes consumed (a multiple of 8). When the
// host can alias and data is 8-aligned, the graph's fixed-width arrays are
// views into data, which must then stay alive and unmodified as long as the
// graph (or a clone) is in use; misaligned input is copied once first.
// Every count is checked against len(data) before anything is sized from it,
// and every array is bounds-checked and repeated vertex IDs are rejected, so
// hostile bytes error.
func DecodeFlat(data []byte) (*Graph, int, error) { return DecodeFlatProven(data, distinctIDs) }

// DecodeFlatProven is DecodeFlat for a caller that proves the vertex IDs
// distinct from lists of its own — in linear time, where DecodeFlat would
// build the ID index for IDs that do not ascend. distinct runs once every
// array is bounds-checked, in place of DecodeFlat's check; its error is the
// decode's. partition.DecodeFragment is that caller.
func DecodeFlatProven(data []byte, distinct func(*Graph) error) (*Graph, int, error) {
	if len(data) < flatHeaderLen {
		return nil, 0, fmt.Errorf("graph: flat form truncated: %d header bytes", len(data))
	}
	le := binary.LittleEndian
	if le.Uint32(data) != flatMagic || le.Uint32(data[4:])&^flatDirected != 0 || le.Uint32(data[28:]) != 0 {
		return nil, 0, fmt.Errorf("graph: not a flat form (bad magic or flags)")
	}
	directed := le.Uint32(data[4:])&flatDirected != 0
	nv, nd := uint64(le.Uint32(data[8:])), uint64(le.Uint32(data[12:]))
	ne, strs := le.Uint64(data[16:]), uint64(le.Uint32(data[24:]))
	ids, vlab, outOff, outDense, total := flatLayout(nv, nd, strs)
	if nv >= math.MaxInt32 || nd > math.MaxInt32 || ne > nd || total > uint64(len(data)) {
		return nil, 0, fmt.Errorf("graph: flat form claims |V|=%d packed=%d |E|=%d strs=%d in %d bytes", nv, nd, ne, strs, len(data))
	}
	data = Realigned(data[:total])
	labels, propOff, propVals, err := parseStrings(data[flatHeaderLen:flatHeaderLen+strs], int(nv))
	if err != nil {
		return nil, 0, fmt.Errorf("graph: flat form strings: %w", err)
	}
	g, err := fromFlat(csrData{
		Directed: directed,
		NumEdges: int(ne),
		IDs:      viewIDs(data[ids : ids+nv*8]),
		VLabels:  ViewInt32s(data[vlab : vlab+nv*4]),
		OutOff:   ViewInt32s(data[outOff : outOff+(nv+1)*4]),
		OutDense: viewDense(data[outDense : outDense+nd*16]),
		Labels:   labels,
		PropOff:  propOff,
		PropVals: propVals,
	}, distinct)
	if err != nil {
		return nil, 0, err
	}
	return g, int(total), nil
}
