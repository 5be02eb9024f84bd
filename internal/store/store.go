// Package store is the durable backend of the serving path: versioned binary
// snapshots of CSR graphs (mmap-able, zero-copy), an append-only
// hash-chained mutation journal fsync-ed ahead of every applied batch —
// together they let a killed server restart onto the exact epoch and
// bit-identical answers it was serving, without reloading text.
//
// On-disk layout, one directory per named graph:
//
//	<root>/<name>/snap-<epoch>.grs    snapshot frozen at <epoch>
//	<root>/<name>/wal-<epoch>.grj     journal of batches applied since it
//
// Snapshot and journal always travel as a pair: the journal header embeds
// the SHA-256 of its snapshot's header, so a mixed pair (from a torn
// compaction, a copy mistake, tampering) is rejected rather than replayed.
// Compaction writes the new pair under the new epoch before deleting the
// old one, so a crash at any byte leaves at least one complete pair; startup
// picks the highest-epoch valid snapshot and garbage-collects the rest.
package store

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"grape/internal/graph"
)

// ErrNoSnapshot reports that a graph directory holds no usable snapshot —
// the caller should build the graph from its original source and Create.
var ErrNoSnapshot = fmt.Errorf("store: no usable snapshot")

// Store is the root of a durable data directory, one subdirectory per graph.
type Store struct {
	root string
}

// Open opens (creating if needed) the data directory at root.
func Open(root string) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Store{root: root}, nil
}

// Root returns the data directory path.
func (s *Store) Root() string { return s.root }

// List returns the names of graphs with a directory under the store, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && validGraphName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Graph returns the per-graph store for name. It touches nothing on disk:
// Create makes the graph's directory, and Open of a graph without one is
// ErrNoSnapshot.
func (s *Store) Graph(name string) (*GraphStore, error) {
	if !validGraphName(name) {
		return nil, fmt.Errorf("store: invalid graph name %q", name)
	}
	return &GraphStore{name: name, dir: filepath.Join(s.root, name)}, nil
}

// validGraphName rejects names that would escape the data directory or
// collide with the store's own file patterns.
func validGraphName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Recovered is the result of opening a graph store: the snapshot graph plus
// the journaled batches to replay through the session layer on top of it.
type Recovered struct {
	Graph         *graph.Graph
	SnapshotEpoch uint64
	Mapped        bool     // snapshot is served zero-copy off an mmap
	Records       []Record // intact journal records, in append order
	Damage        *Damage  // non-nil if a broken journal tail was truncated
}

// Stats is a point-in-time view of a graph store's durable state.
type Stats struct {
	SnapshotEpoch  uint64
	JournalRecords int
	JournalBytes   int64
	Mapped         bool
}

// GraphStore manages the snapshot + journal pair for one named graph.
type GraphStore struct {
	name string
	dir  string

	mu        sync.Mutex
	journal   *Journal
	closed    *Journal // the journal Close closed; Stats still reports it
	snapEpoch uint64
	binding   [32]byte
	mapped    bool
	closers   []func() error // live mmap unmaps; run only at Close
}

// Name returns the graph name this store serves.
func (gs *GraphStore) Name() string { return gs.name }

func (gs *GraphStore) snapPath(epoch uint64) string {
	return filepath.Join(gs.dir, fmt.Sprintf("snap-%016x.grs", epoch))
}

func (gs *GraphStore) walPath(epoch uint64) string {
	return filepath.Join(gs.dir, fmt.Sprintf("wal-%016x.grj", epoch))
}

// Create makes the graph's directory if needed, wipes any prior state and
// persists g as the graph's snapshot at epoch, with an empty journal bound
// to it.
func (gs *GraphStore) Create(g *graph.Graph, epoch uint64) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.journal != nil {
		gs.journal.Close()
		gs.journal = nil
	}
	if err := os.MkdirAll(gs.dir, 0o755); err != nil {
		return err
	}
	if err := gs.removeFilesLocked(func(uint64) bool { return true }); err != nil {
		return err
	}
	binding, err := WriteSnapshotFile(gs.snapPath(epoch), g, epoch)
	if err != nil {
		return err
	}
	j, err := createJournal(gs.walPath(epoch), epoch, binding)
	if err != nil {
		return err
	}
	gs.journal = j
	gs.snapEpoch = epoch
	gs.binding = binding
	gs.mapped = false
	return nil
}

// Open recovers the graph: it loads the highest-epoch valid snapshot
// (falling back to older ones if the newest fails validation), opens the
// paired journal — truncating any damaged tail to its intact prefix — and
// garbage-collects superseded pairs. The caller replays Records through the
// session layer to reach the pre-crash epoch. Returns ErrNoSnapshot if the
// directory is missing or holds no usable snapshot.
func (gs *GraphStore) Open() (*Recovered, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	epochs, err := gs.snapshotEpochsLocked()
	if err != nil {
		return nil, err
	}
	var firstErr error
	for i := len(epochs) - 1; i >= 0; i-- {
		epoch := epochs[i]
		g, si, err := OpenSnapshotFile(gs.snapPath(epoch))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot epoch %d: %w", epoch, err)
			}
			continue
		}
		j, recs, damage, err := openJournal(gs.walPath(epoch), epoch, si.Binding)
		if err != nil {
			si.Close()
			if firstErr == nil {
				firstErr = fmt.Errorf("journal for epoch %d: %w", epoch, err)
			}
			continue
		}
		gs.journal = j
		gs.snapEpoch = epoch
		gs.binding = si.Binding
		gs.mapped = si.Mapped
		if si.Mapped {
			// The graph's CSR arrays alias the mapping; keep it alive for the
			// store's lifetime.
			gs.closers = append(gs.closers, si.Close)
		}
		gs.gcLocked(epoch)
		return &Recovered{
			Graph:         g,
			SnapshotEpoch: epoch,
			Mapped:        si.Mapped,
			Records:       recs,
			Damage:        damage,
		}, nil
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (%v)", ErrNoSnapshot, firstErr)
	}
	return nil, ErrNoSnapshot
}

// Append journals one mutation batch, fsync-ing before returning. Callers
// apply the batch to the in-memory session only after Append succeeds.
func (gs *GraphStore) Append(r Record) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.journal == nil {
		return fmt.Errorf("store: graph %s has no open journal", gs.name)
	}
	return gs.journal.Append(r)
}

// Stats reports the journal length and snapshot epoch.
func (gs *GraphStore) Stats() Stats {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	st := Stats{SnapshotEpoch: gs.snapEpoch, Mapped: gs.mapped}
	if j := cmp.Or(gs.journal, gs.closed); j != nil {
		st.JournalRecords = j.Records()
		st.JournalBytes = j.Size()
	}
	return st
}

// Compact re-snapshots g (the current in-memory graph) at epoch and swaps in
// a fresh journal, then deletes the superseded pair. The new pair is fully
// written before anything is removed, so a crash at any point leaves a
// complete pair on disk. The caller must ensure g is not mutated for the
// duration (the server holds the graph's read lock).
func (gs *GraphStore) Compact(g *graph.Graph, epoch uint64) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if epoch <= gs.snapEpoch {
		return fmt.Errorf("store: compacting %s to epoch %d, already at %d", gs.name, epoch, gs.snapEpoch)
	}
	binding, err := WriteSnapshotFile(gs.snapPath(epoch), g, epoch)
	if err != nil {
		return err
	}
	j, err := createJournal(gs.walPath(epoch), epoch, binding)
	if err != nil {
		os.Remove(gs.snapPath(epoch))
		return err
	}
	if gs.journal != nil {
		gs.journal.Close()
	}
	gs.journal = j
	gs.snapEpoch = epoch
	gs.binding = binding
	gs.mapped = false
	gs.gcLocked(epoch)
	return nil
}

// Close closes the journal and releases any live snapshot mappings. The
// graph recovered from a mapped snapshot must not be used after Close.
// Stats still reports the closed journal, which Append refuses.
func (gs *GraphStore) Close() error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	var firstErr error
	if gs.journal != nil {
		if err := gs.journal.Close(); err != nil {
			firstErr = err
		}
		gs.journal, gs.closed = nil, gs.journal
	}
	for _, c := range gs.closers {
		if err := c(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	gs.closers = nil
	return firstErr
}

// snapshotEpochsLocked lists epochs with a snapshot file present, ascending;
// a missing directory holds none.
func (gs *GraphStore) snapshotEpochsLocked() ([]uint64, error) {
	entries, err := os.ReadDir(gs.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		if epoch, ok := parseEpochFile(e.Name(), "snap-", ".grs"); ok {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// gcLocked removes snapshot/journal pairs other than keep's.
func (gs *GraphStore) gcLocked(keep uint64) {
	gs.removeFilesLocked(func(epoch uint64) bool { return epoch != keep })
}

// removeFilesLocked deletes every leftover .tmp file and every snapshot or
// journal whose epoch matches drop. Removal errors are ignored — GC retries
// on the next open/compaction — but listing errors are returned.
func (gs *GraphStore) removeFilesLocked(drop func(epoch uint64) bool) error {
	entries, err := os.ReadDir(gs.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		epoch, ok := parseEpochFile(name, "snap-", ".grs")
		if !ok {
			epoch, ok = parseEpochFile(name, "wal-", ".grj")
		}
		if strings.HasSuffix(name, ".tmp") || ok && drop(epoch) {
			os.Remove(filepath.Join(gs.dir, name))
		}
	}
	return nil
}

// parseEpochFile extracts the epoch from names like "snap-<16 hex>.grs".
func parseEpochFile(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	return parseHex16(hex)
}

func parseHex16(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// syncParentDir best-effort fsyncs the directory containing path, making a
// preceding rename or create durable. Failures are ignored: some platforms
// and filesystems reject directory fsync, and the data files themselves are
// already synced.
func syncParentDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
