package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"grape/internal/graph"
)

// Snapshot file format (version 2): a 48-byte header, then the graph in
// graph's flat wire form (graph.AppendFlat) — the bytes a pattern blob or a
// fragment frame's core carries, so a graph has one byte layout:
//
//	offset  0  magic "GRAPESNP" (8 bytes)
//	offset  8  u32 format version (2)
//	offset 12  u32 zero
//	offset 16  u64 epoch
//	offset 24  u64 body length
//	offset 32  u32 CRC32C of the body
//	offset 36  8 bytes zero
//	offset 44  u32 CRC32C of bytes [0, 44)
//	offset 48  body: the flat form, exactly body-length bytes
//
// All integers are little-endian. The body starts 8-aligned, so a mapped or
// aligned-read file serves the graph's fixed-width arrays zero-copy
// (graph.DecodeFlat). The whole body is checksummed before the decoder reads
// a byte of it. The flat form carries no reverse CSR: a recovered directed
// graph derives it on first use, like every decoded graph.
//
// The snapshot's identity is the SHA-256 of its header (the body CRC binds
// the content), used by the journal to pair a WAL with exactly one snapshot.

const (
	snapMagic      = "GRAPESNP"
	snapVersion    = 2
	snapHeaderSize = 48
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

// WriteSnapshotFile writes a snapshot of the graph g at epoch to path
// atomically (tmp file + fsync + rename + directory fsync) and returns the
// snapshot's binding hash. The encoding is deterministic: the same graph and
// epoch produce byte-identical files.
func WriteSnapshotFile(path string, g *graph.Graph, epoch uint64) ([32]byte, error) {
	buf := encodeSnapshot(g, epoch)
	binding := sha256.Sum256(buf[:snapHeaderSize])

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return binding, err
	}
	_, err = f.Write(buf)
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

// encodeSnapshot returns the whole snapshot file of g at epoch: the header,
// then the body, built by one graph.AppendFlatSized.
func encodeSnapshot(g *graph.Graph, epoch uint64) []byte {
	size := graph.MeasureFlat(g)
	buf := graph.AppendFlatSized(make([]byte, snapHeaderSize, snapHeaderSize+size.Len()), g, size)
	header, body := buf[:snapHeaderSize], buf[snapHeaderSize:]
	copy(header, snapMagic)
	le := binary.LittleEndian
	le.PutUint32(header[8:], snapVersion)
	le.PutUint64(header[16:], epoch)
	le.PutUint64(header[24:], uint64(len(body)))
	le.PutUint32(header[32:], crc32.Checksum(body, castagnoli))
	le.PutUint32(header[44:], crc32.Checksum(header[:44], castagnoli))
	return buf
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
		return nil, nil, fmt.Errorf("store: host layout cannot alias snapshot arrays")
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

// parseSnapshot validates and decodes a whole snapshot image: the header,
// then the body's checksum, then graph.DecodeFlat, which must consume every
// byte. When the host can alias, the graph's fixed-width arrays are
// zero-copy views into data. The version is checked before the header
// checksum, so a file of another version is refused by its number.
func parseSnapshot(data []byte) (*graph.Graph, *SnapshotInfo, error) {
	if len(data) < snapHeaderSize {
		return nil, nil, fmt.Errorf("short header: %d bytes", len(data))
	}
	header, body := data[:snapHeaderSize], data[snapHeaderSize:]
	if string(header[:8]) != snapMagic {
		return nil, nil, fmt.Errorf("bad magic")
	}
	le := binary.LittleEndian
	if v := le.Uint32(header[8:]); v != snapVersion {
		return nil, nil, fmt.Errorf("unsupported format version %d (this build reads version %d)", v, snapVersion)
	}
	if crc32.Checksum(header[:44], castagnoli) != le.Uint32(header[44:]) {
		return nil, nil, fmt.Errorf("header checksum mismatch")
	}
	if le.Uint32(header[12:]) != 0 || le.Uint64(header[36:]) != 0 {
		return nil, nil, fmt.Errorf("reserved header bytes are not zero")
	}
	if n := le.Uint64(header[24:]); n != uint64(len(body)) {
		return nil, nil, fmt.Errorf("body is %d bytes, header says %d", len(body), n)
	}
	if crc32.Checksum(body, castagnoli) != le.Uint32(header[32:]) {
		return nil, nil, fmt.Errorf("body checksum mismatch")
	}
	g, used, err := graph.DecodeFlat(body)
	if err != nil {
		return nil, nil, err
	}
	if used != len(body) {
		return nil, nil, fmt.Errorf("%d trailing bytes after the graph", len(body)-used)
	}
	return g, &SnapshotInfo{Epoch: le.Uint64(header[16:]), Binding: sha256.Sum256(header)}, nil
}
