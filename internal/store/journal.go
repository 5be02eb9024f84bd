package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"grape/internal/engine"
	"grape/internal/graph"
)

// Journal file format (version 1) — the append-only mutation log paired with
// one snapshot:
//
//	offset  0  magic "GRAPEWAL" (8 bytes)
//	offset  8  u32 format version (1)
//	offset 12  u32 zero
//	offset 16  u64 base epoch (the paired snapshot's epoch)
//	offset 24  SHA-256 binding of the paired snapshot's header (32 bytes)
//	offset 56  records
//
// Each record is `uvarint payload length · payload · 32-byte chain hash`,
// where chain_i = SHA-256(chain_{i-1} ∥ payload_i) and chain_{-1} is the
// SHA-256 of the 56-byte header. The chain makes the log tamper-evident and
// truncation-detecting: flipping a byte of any record breaks every hash from
// that record on, and a torn tail fails to parse — in both cases recovery
// keeps the longest intact prefix and refuses the rest.
//
// The payload is the mutation batch in the engine's wire codecs: uvarint
// pre-mutation epoch, the program name and canonical query (length-prefixed),
// then the edge updates via engine.AppendEdgeUpdates. Records are fsync-ed
// before the session mutates, so every applied batch is on disk.

const (
	walMagic      = "GRAPEWAL"
	walVersion    = 1
	walHeaderSize = 8 + 4 + 4 + 8 + 32 // 56
	maxRecordLen  = 1 << 28
)

// Record is one journaled mutation batch. PreEpoch is the graph epoch the
// batch was applied against — replay asserts it, so a divergent replay fails
// loudly instead of landing on a silently different state.
type Record struct {
	PreEpoch uint64
	Program  string
	Query    string // canonical form; replay re-parses it
	Updates  []engine.EdgeUpdate
}

// AppendRecord appends the wire encoding of r to buf and returns the
// extended buffer.
func AppendRecord(buf []byte, r Record) []byte {
	buf = binary.AppendUvarint(buf, r.PreEpoch)
	buf = appendStr(buf, r.Program)
	buf = appendStr(buf, r.Query)
	return engine.AppendEdgeUpdates(buf, r.Updates)
}

// DecodeRecord decodes a record payload encoded by AppendRecord; the payload
// must be consumed exactly.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	pos := 0
	var err error
	if r.PreEpoch, err = graph.ReadUvarint(data, &pos); err != nil {
		return r, err
	}
	if r.Program, err = graph.ReadString(data, &pos); err != nil {
		return r, err
	}
	if r.Query, err = graph.ReadString(data, &pos); err != nil {
		return r, err
	}
	ups, used, err := engine.DecodeEdgeUpdates(data[pos:])
	if err != nil {
		return r, err
	}
	r.Updates = ups
	pos += used
	if pos != len(data) {
		return r, fmt.Errorf("store: %d trailing bytes in journal record", len(data)-pos)
	}
	return r, nil
}

// Damage describes a journal whose tail could not be trusted: a torn record
// (crash mid-append) or a broken hash chain (tampering, bit rot). Recovery
// keeps the Intact leading records and truncates the rest — the chain
// guarantees nothing past the first break is served.
type Damage struct {
	Reason string
	Intact int
}

func (d *Damage) Error() string {
	return fmt.Sprintf("store: journal damaged (%s); %d intact records retained", d.Reason, d.Intact)
}

// Journal is an open mutation log positioned for appending.
type Journal struct {
	f       file
	path    string
	prev    [32]byte
	records int
	size    int64
	failed  error // once set, every later Append returns it (see Append)
}

// file is what a Journal needs of its *os.File; tests substitute one that
// fails on demand.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

func walHeader(baseEpoch uint64, binding [32]byte) []byte {
	h := make([]byte, walHeaderSize)
	copy(h, walMagic)
	binary.LittleEndian.PutUint32(h[8:], walVersion)
	binary.LittleEndian.PutUint64(h[16:], baseEpoch)
	copy(h[24:], binding[:])
	return h
}

// createJournal starts a fresh journal at path bound to the snapshot
// identified by (baseEpoch, binding), truncating anything already there.
func createJournal(path string, baseEpoch uint64, binding [32]byte) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	header := walHeader(baseEpoch, binding)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncParentDir(path)
	return &Journal{f: f, path: path, prev: sha256.Sum256(header), size: walHeaderSize}, nil
}

// openJournal opens an existing journal, verifies its pairing and its hash
// chain, and returns the intact records plus the journal positioned for
// appending. A file shorter than the header is the crash window between
// snapshot rename and journal creation — it is recreated empty. A damaged
// tail (torn record or broken chain) is reported via Damage and truncated,
// so later appends extend the intact chain.
func openJournal(path string, baseEpoch uint64, binding [32]byte) (*Journal, []Record, *Damage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			j, cerr := createJournal(path, baseEpoch, binding)
			return j, nil, nil, cerr
		}
		return nil, nil, nil, err
	}
	if len(data) < walHeaderSize {
		j, cerr := createJournal(path, baseEpoch, binding)
		return j, nil, nil, cerr
	}
	header := data[:walHeaderSize]
	if string(header[:8]) != walMagic {
		return nil, nil, nil, fmt.Errorf("store: journal %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(header[8:]); v != walVersion {
		return nil, nil, nil, fmt.Errorf("store: journal %s: unsupported version %d", path, v)
	}
	if got := binary.LittleEndian.Uint64(header[16:]); got != baseEpoch {
		return nil, nil, nil, fmt.Errorf("store: journal %s: based on epoch %d, snapshot is %d", path, got, baseEpoch)
	}
	if !bytesEqual32(header[24:], binding) {
		return nil, nil, nil, fmt.Errorf("store: journal %s: bound to a different snapshot", path)
	}

	prev := sha256.Sum256(header)
	var recs []Record
	var damage *Damage
	pos := walHeaderSize
	intactEnd := pos
	for pos < len(data) {
		n, used := binary.Uvarint(data[pos:])
		if used <= 0 || n > maxRecordLen {
			damage = &Damage{Reason: "torn record length", Intact: len(recs)}
			break
		}
		body := pos + used
		if uint64(len(data)-body) < n+32 {
			damage = &Damage{Reason: "truncated record", Intact: len(recs)}
			break
		}
		payload := data[body : body+int(n)]
		h := sha256.New()
		h.Write(prev[:])
		h.Write(payload)
		var chain [32]byte
		h.Sum(chain[:0])
		if !bytesEqual32(data[body+int(n):body+int(n)+32], chain) {
			damage = &Damage{Reason: "broken hash chain", Intact: len(recs)}
			break
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			damage = &Damage{Reason: fmt.Sprintf("undecodable record: %v", err), Intact: len(recs)}
			break
		}
		recs = append(recs, rec)
		prev = chain
		pos = body + int(n) + 32
		intactEnd = pos
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	if damage != nil {
		// Refuse the broken suffix: cut the file back to the intact prefix so
		// the on-disk chain matches what was recovered and future appends
		// extend it.
		if err := f.Truncate(int64(intactEnd)); err != nil {
			f.Close()
			return nil, nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, nil, err
		}
	}
	if _, err := f.Seek(int64(intactEnd), 0); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return &Journal{f: f, path: path, prev: prev, records: len(recs), size: int64(intactEnd)}, recs, damage, nil
}

// Append encodes r, extends the hash chain, writes the record and fsyncs it.
// It returns only after the record is durable — callers mutate state after.
// A failed append leaves no bytes behind it: the file is cut back to the
// last acknowledged record, so the refused record is never replayed and the
// next one extends the intact chain. After a failed fsync, or a cut that
// fails, the journal refuses every later Append until it is reopened or
// compacted away: a failed fsync is never retried, since the kernel may
// already have dropped the pages it could not write.
func (j *Journal) Append(r Record) error {
	if j.failed != nil {
		return j.failed
	}
	payload := AppendRecord(nil, r)
	if len(payload) > maxRecordLen {
		return fmt.Errorf("store: journal record of %d bytes exceeds the %d cap", len(payload), maxRecordLen)
	}
	h := sha256.New()
	h.Write(j.prev[:])
	h.Write(payload)
	var chain [32]byte
	h.Sum(chain[:0])
	buf := binary.AppendUvarint(nil, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = append(buf, chain[:]...)
	if _, err := j.f.Write(buf); err != nil {
		return j.unwrite(fmt.Errorf("store: appending to journal %s: %w", j.path, err), false)
	}
	if err := j.f.Sync(); err != nil {
		return j.unwrite(fmt.Errorf("store: syncing journal %s: %w", j.path, err), true)
	}
	j.prev = chain
	j.records++
	j.size += int64(len(buf))
	return nil
}

// unwrite cuts the file back to j.size after the append that failed with
// err, and returns err. It marks the journal failed when poison is set (the
// fsync failed) or the cut does not succeed.
func (j *Journal) unwrite(err error, poison bool) error {
	if terr := j.f.Truncate(j.size); terr != nil {
		err = fmt.Errorf("%w; cutting it back: %v", err, terr)
		poison = true
	} else if _, serr := j.f.Seek(j.size, io.SeekStart); serr != nil {
		err = fmt.Errorf("%w; seeking back: %v", err, serr)
		poison = true
	}
	if poison {
		j.failed = fmt.Errorf("store: journal %s refuses appends after a failed one (%w)", j.path, err)
	}
	return err
}

// Records returns the number of records in the journal.
func (j *Journal) Records() int { return j.records }

// Size returns the journal file size in bytes (header included).
func (j *Journal) Size() int64 { return j.size }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

func bytesEqual32(b []byte, want [32]byte) bool {
	if len(b) < 32 {
		return false
	}
	var got [32]byte
	copy(got[:], b)
	return got == want
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
