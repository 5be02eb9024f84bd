package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"grape/internal/graph"
)

// Snapshot file format (version 1) — a CSR graph laid out so the
// fixed-width arrays can be mmap-ed and served zero-copy:
//
//	offset   0  magic "GRAPESNP" (8 bytes)
//	offset   8  u32 format version (1)
//	offset  12  u32 flags (bit 0: directed)
//	offset  16  u64 epoch
//	offset  24  u64 |V|
//	offset  32  u64 packed edge count (len of outDense; both directions for
//	            undirected graphs)
//	offset  40  u64 |E| (logical; undirected edges count once)
//	offset  48  section table: 7 entries × {u64 offset, u64 length, u32 CRC32C,
//	            u32 zero} for ids, vlab, outOff, outDense, inOff, inDense, strs
//	offset 216  u32 CRC32C of bytes [0, 216)
//	offset 220  u32 zero
//	offset 224  sections, each starting 8-aligned (zero padding between)
//
// All fixed-width integers are little-endian. Sections ids (int64), vlab
// (int32), outOff (int32, |V|+1 entries), outDense/inDense (16-byte packed
// edges: u32 dense target, u32 interned label, f64 weight) and inOff mirror
// the graph package's arrays exactly; inOff/inDense are empty for
// undirected graphs. The strs section holds everything string-shaped —
// the label-intern table and vertex properties — uvarint-encoded; it is
// reconstructed on the heap at open (strings cannot alias a mapping). The
// section encodings and the byte↔array casts are graph's flat codec
// (graph/flat.go), shared with the socket substrate's fragment frames; this
// file owns only the header, the section table and the checksums.
//
// The snapshot's identity is the SHA-256 of its 224-byte header (the section
// CRCs bind the content), used by the journal to pair a WAL with exactly one
// snapshot.

const (
	snapMagic      = "GRAPESNP"
	snapVersion    = 1
	snapFlagDir    = 1
	snapSections   = 7
	snapHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 + snapSections*24 + 8 // 224
	maxSectionLen  = 1 << 34
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotInfo describes an opened snapshot. Close releases the file mapping
// backing a mapped graph — call it only after every reference to the graph
// (clones included: they share the CSR arrays) is gone. A server that served
// the graph keeps the mapping for the process lifetime instead.
type SnapshotInfo struct {
	Epoch   uint64
	Mapped  bool
	Binding [32]byte // SHA-256 of the header; pairs the journal to this snapshot
	close   func() error
}

// Close releases the resources behind the snapshot (the mapping, if mapped).
func (si *SnapshotInfo) Close() error {
	if si == nil || si.close == nil {
		return nil
	}
	c := si.close
	si.close = nil
	return c()
}

type snapSection struct {
	off, n uint64
	crc    uint32
}

// WriteSnapshotFile writes a snapshot of the graph g at epoch to path
// atomically (tmp file + fsync + rename + directory fsync) and returns the
// snapshot's binding hash. The encoding is deterministic: the same graph and
// epoch produce byte-identical files.
func WriteSnapshotFile(path string, g *graph.Graph, epoch uint64) ([32]byte, error) {
	var binding [32]byte
	d := g.CSRView()
	secs := [snapSections][]byte{
		graph.IDBytes(d.IDs),
		graph.Int32Bytes(d.VLabels),
		graph.Int32Bytes(d.OutOff),
		graph.DenseBytes(d.OutDense),
		graph.Int32Bytes(d.InOff),
		graph.DenseBytes(d.InDense),
		graph.AppendStrings(nil, d),
	}

	header := make([]byte, snapHeaderSize)
	copy(header, snapMagic)
	le := binary.LittleEndian
	le.PutUint32(header[8:], snapVersion)
	if d.Directed {
		le.PutUint32(header[12:], snapFlagDir)
	}
	le.PutUint64(header[16:], epoch)
	le.PutUint64(header[24:], uint64(len(d.IDs)))
	le.PutUint64(header[32:], uint64(len(d.OutDense)))
	le.PutUint64(header[40:], uint64(d.NumEdges))
	off := uint64(snapHeaderSize)
	for i, sec := range secs {
		off = align8(off)
		e := 48 + i*24
		le.PutUint64(header[e:], off)
		le.PutUint64(header[e+8:], uint64(len(sec)))
		le.PutUint32(header[e+16:], crc32.Checksum(sec, castagnoli))
		off += uint64(len(sec))
	}
	le.PutUint32(header[snapHeaderSize-8:], crc32.Checksum(header[:snapHeaderSize-8], castagnoli))
	binding = sha256.Sum256(header)

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return binding, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	written := uint64(0)
	write := func(b []byte) {
		if err == nil {
			var n int
			n, err = w.Write(b)
			written += uint64(n)
		}
	}
	write(header)
	var pad [8]byte
	for _, sec := range secs {
		if p := align8(written) - written; p > 0 {
			write(pad[:p])
		}
		write(sec)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return binding, fmt.Errorf("store: writing snapshot %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return binding, err
	}
	syncParentDir(path)
	return binding, nil
}

// ReadSnapshotFile loads a snapshot with a plain read — the fallback path for
// platforms without mmap, and the "load into private memory" option. The
// buffer is allocated 8-aligned so the same zero-copy array views are used.
func ReadSnapshotFile(path string) (*graph.Graph, *SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data := graph.AlignedBuf(int(st.Size()))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, fmt.Errorf("store: reading snapshot %s: %w", path, err)
	}
	g, si, err := parseSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return g, si, nil
}

// OpenSnapshotFile opens a snapshot for serving: mmap-ed zero-copy where the
// platform supports it (the graph's CSR arrays alias the mapping), a plain
// read otherwise. Callers must keep the returned SnapshotInfo alive as long
// as the graph (or any clone of it) is in use.
func OpenSnapshotFile(path string) (*graph.Graph, *SnapshotInfo, error) {
	if !mmapSupported || !graph.CanAlias() {
		return ReadSnapshotFile(path)
	}
	g, si, err := MapSnapshotFile(path)
	if err != nil {
		// A mapping failure (resource limits, odd filesystem) is not a corrupt
		// snapshot; fall back to the plain read before giving up.
		return ReadSnapshotFile(path)
	}
	return g, si, err
}

// MapSnapshotFile opens a snapshot via mmap. The returned graph's fixed-width
// CSR arrays alias the read-only mapping; SnapshotInfo.Close unmaps it.
func MapSnapshotFile(path string) (*graph.Graph, *SnapshotInfo, error) {
	if !mmapSupported {
		return nil, nil, fmt.Errorf("store: mmap not supported on this platform")
	}
	if !graph.CanAlias() {
		return nil, nil, fmt.Errorf("store: host layout cannot alias snapshot sections")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data, unmap, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return nil, nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	g, si, err := parseSnapshot(data)
	if err != nil {
		unmap()
		return nil, nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	si.Mapped = true
	si.close = unmap
	return g, si, nil
}

// parseSnapshot validates and decodes a whole snapshot image. When the host
// can alias (little-endian, packed edge layout), the fixed-width arrays are
// zero-copy views into data; otherwise they are decoded into fresh memory.
// Every section is CRC-checked before anything dereferences it, so a corrupt
// or truncated file errors instead of panicking.
func parseSnapshot(data []byte) (*graph.Graph, *SnapshotInfo, error) {
	if len(data) < snapHeaderSize {
		return nil, nil, fmt.Errorf("short header: %d bytes", len(data))
	}
	header := data[:snapHeaderSize]
	if string(header[:8]) != snapMagic {
		return nil, nil, fmt.Errorf("bad magic")
	}
	le := binary.LittleEndian
	if v := le.Uint32(header[8:]); v != snapVersion {
		return nil, nil, fmt.Errorf("unsupported format version %d", v)
	}
	if got, want := crc32.Checksum(header[:snapHeaderSize-8], castagnoli), le.Uint32(header[snapHeaderSize-8:]); got != want {
		return nil, nil, fmt.Errorf("header checksum mismatch")
	}
	directed := le.Uint32(header[12:])&snapFlagDir != 0
	epoch := le.Uint64(header[16:])
	nv := le.Uint64(header[24:])
	nd := le.Uint64(header[32:])
	ne := le.Uint64(header[40:])
	if nv > 1<<31-2 || nd > 1<<31-1 || ne > nd {
		return nil, nil, fmt.Errorf("implausible counts |V|=%d packed=%d |E|=%d", nv, nd, ne)
	}
	var secs [snapSections]snapSection
	for i := range secs {
		e := 48 + i*24
		secs[i] = snapSection{off: le.Uint64(header[e:]), n: le.Uint64(header[e+8:]), crc: le.Uint32(header[e+16:])}
		s := secs[i]
		if s.n > maxSectionLen || s.off%8 != 0 || s.off > uint64(len(data)) || s.n > uint64(len(data))-s.off {
			return nil, nil, fmt.Errorf("section %d out of bounds (off=%d len=%d file=%d)", i, s.off, s.n, len(data))
		}
	}
	want := [snapSections]uint64{nv * 8, nv * 4, (nv + 1) * 4, nd * 16, (nv + 1) * 4, nd * 16, secs[6].n}
	if !directed {
		want[4], want[5] = 0, 0
	}
	for i, s := range secs {
		if s.n != want[i] {
			return nil, nil, fmt.Errorf("section %d is %d bytes, want %d", i, s.n, want[i])
		}
	}
	sec := func(i int) ([]byte, error) {
		s := secs[i]
		b := data[s.off : s.off+s.n]
		if crc32.Checksum(b, castagnoli) != s.crc {
			return nil, fmt.Errorf("section %d checksum mismatch", i)
		}
		return b, nil
	}
	var raw [snapSections][]byte
	for i := range raw {
		b, err := sec(i)
		if err != nil {
			return nil, nil, err
		}
		raw[i] = b
	}
	labels, props, err := graph.ParseStrings(raw[6], int(nv))
	if err != nil {
		return nil, nil, err
	}
	d := graph.CSRData{
		Directed: directed,
		NumEdges: int(ne),
		IDs:      graph.ViewIDs(raw[0]),
		VLabels:  graph.ViewInt32s(raw[1]),
		OutOff:   graph.ViewInt32s(raw[2]),
		OutDense: graph.ViewDense(raw[3]),
		InOff:    graph.ViewInt32s(raw[4]),
		InDense:  graph.ViewDense(raw[5]),
		Labels:   labels,
		Props:    props,
	}
	g, err := graph.FromMapped(d)
	if err != nil {
		return nil, nil, err
	}
	si := &SnapshotInfo{Epoch: epoch}
	si.Binding = sha256.Sum256(header)
	return g, si, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }
