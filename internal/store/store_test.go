package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grape/internal/engine"
	"grape/internal/graph"
)

func testGraph(seed int64, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewUndirectedBuilder()
	if directed {
		g = graph.NewBuilder()
	}
	nv := 5 + rng.Intn(40)
	vlabels := []string{"", "a", "b", "person"}
	elabels := []string{"", "x", "follows"}
	ids := make([]graph.ID, 0, nv)
	for i := 0; i < nv; i++ {
		id := graph.ID(rng.Intn(500))
		g.AddVertex(id, vlabels[rng.Intn(len(vlabels))])
		ids = append(ids, id)
		if rng.Intn(4) == 0 {
			g.SetProps(id, []string{"k", "w"}[:1+rng.Intn(2)])
		}
	}
	ne := rng.Intn(120)
	for i := 0; i < ne; i++ {
		u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		g.AddLabeledEdge(u, v, float64(rng.Intn(8))+0.5, elabels[rng.Intn(len(elabels))])
	}
	return g.Graph()
}

// assertSameGraph compares two graphs through graph.Diff, which covers the
// vertex set in dense order, labels, props, and the full edge multiset in
// adjacency order.
func assertSameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("recovered graph invalid: %v", err)
	}
	if err := graph.Diff(want, got); err != nil {
		t.Fatalf("graphs differ: %v", err)
	}
}

// TestSnapshotFormatPinned pins the on-disk snapshot format (version 2) by
// the SHA-256 of what WriteSnapshotFile produces for fixed graphs: the body
// is the flat wire form that fragment frames and pattern blobs also carry,
// and a change made for the wire must not move a byte on disk unnoticed.
func TestSnapshotFormatPinned(t *testing.T) {
	for _, c := range []struct {
		directed bool
		want     string
	}{
		{true, "7f676d106ce9df17a4e05e782972a3982528d87edf830c82a5771560b001f6c8"},
		{false, "d6a283523cb7d9d2ae21150716b44380e63c8eab84585c320a1b013b027f94db"},
	} {
		path := filepath.Join(t.TempDir(), "g.grs")
		if _, err := WriteSnapshotFile(path, testGraph(3, c.directed).Freeze(), 42); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("directed=%v: snapshot of %d bytes hashes to %s, pinned %s", c.directed, len(data), got, c.want)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, directed := range []bool{true, false} {
			g := testGraph(seed, directed)
			wantIn := map[graph.ID][]graph.Edge{}
			for _, id := range g.Vertices() {
				wantIn[id] = g.In(id)
			}
			// the snapshot carries no reverse CSR: the reopened graph
			// derives the in-edges its out-edges imply
			sameIn := func(got *graph.Graph) {
				t.Helper()
				for id, want := range wantIn {
					if in := got.In(id); len(in)+len(want) > 0 && !reflect.DeepEqual(in, want) {
						t.Fatalf("seed %d: vertex %d in-edges %v, want %v", seed, id, in, want)
					}
				}
			}
			path := filepath.Join(t.TempDir(), "g.grs")
			epoch := uint64(seed) + 3
			if _, err := WriteSnapshotFile(path, g, epoch); err != nil {
				t.Fatalf("seed %d: write: %v", seed, err)
			}

			rg, rsi, err := ReadSnapshotFile(path)
			if err != nil {
				t.Fatalf("seed %d: read: %v", seed, err)
			}
			if rsi.Epoch != epoch {
				t.Fatalf("seed %d: read epoch %d, want %d", seed, rsi.Epoch, epoch)
			}
			assertSameGraph(t, g, rg)
			sameIn(rg)
			rsi.Close()

			if mmapSupported && graph.CanAlias() {
				mg, msi, err := MapSnapshotFile(path)
				if err != nil {
					t.Fatalf("seed %d: map: %v", seed, err)
				}
				if !msi.Mapped {
					t.Fatalf("seed %d: MapSnapshotFile not mapped", seed)
				}
				assertSameGraph(t, g, mg)
				sameIn(mg)
				// Splicing the mapped graph must write to heap memory, not
				// through the read-only mapping.
				mg.AddVertex(graph.ID(99999), "fresh")
				msi.Close()
			}
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := testGraph(7, true).Freeze()
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.grs"), filepath.Join(dir, "b.grs")
	b1, err := WriteSnapshotFile(p1, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := WriteSnapshotFile(p2, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("bindings differ across identical writes")
	}
	d1, _ := os.ReadFile(p1)
	d2, _ := os.ReadFile(p2)
	if !bytes.Equal(d1, d2) {
		t.Fatal("snapshot bytes differ across identical writes")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	g := testGraph(3, true).Freeze()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.grs")
	if _, err := WriteSnapshotFile(path, g, 1); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a spread of offsets across the whole file; every
	// flip must be caught by the header or the body checksum.
	for off := 0; off < len(orig); off += 1 + len(orig)/97 {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x40
		p := filepath.Join(dir, "bad.grs")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, si, err := ReadSnapshotFile(p); err == nil {
			si.Close()
			t.Fatalf("flip at offset %d not detected", off)
		}
	}
	// Truncation at any length must also fail.
	for _, cut := range []int{0, 1, snapHeaderSize - 1, snapHeaderSize, len(orig) / 2, len(orig) - 1} {
		p := filepath.Join(dir, "cut.grs")
		if err := os.WriteFile(p, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, si, err := ReadSnapshotFile(p); err == nil {
			si.Close()
			t.Fatalf("truncation to %d bytes not detected", cut)
		}
	}
}

// TestSnapshotVersion1Refused: a snapshot whose header names format
// version 1 is refused by its version on both read paths, and a store whose
// only snapshot it is opens as ErrNoSnapshot with that reason.
func TestSnapshotVersion1Refused(t *testing.T) {
	s, _ := Open(t.TempDir())
	gs, _ := s.Graph("g")
	if err := gs.Create(testGraph(3, true), 1); err != nil {
		t.Fatal(err)
	}
	gs.Close()
	path := gs.snapPath(1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withVersion(data, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "unsupported format version 1"
	for name, open := range map[string]func(string) (*graph.Graph, *SnapshotInfo, error){
		"read": ReadSnapshotFile, "open": OpenSnapshotFile,
	} {
		if _, si, err := open(path); err == nil || !strings.Contains(err.Error(), want) {
			si.Close()
			t.Fatalf("%s: %v, want an error naming version 1", name, err)
		}
	}
	if _, err := gs.Open(); !errors.Is(err, ErrNoSnapshot) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: %v, want ErrNoSnapshot naming version 1", err)
	}
}

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PreEpoch: uint64(i) + 1,
			Program:  "sssp",
			Query:    fmt.Sprintf("sssp src=%d", i),
			Updates: []engine.EdgeUpdate{
				{From: graph.ID(i), To: graph.ID(i + 1), W: 1.5, Label: "x"},
				{From: graph.ID(i + 1), To: graph.ID(i), W: 2, Del: true},
			},
		}
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(AppendRecord(nil, a[i]), AppendRecord(nil, b[i])) {
			return false
		}
	}
	return true
}

func TestJournalAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.grj")
	binding := [32]byte{1, 2, 3}
	j, err := createJournal(path, 5, binding)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(7)
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, got, damage, err := openJournal(path, 5, binding)
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		t.Fatalf("unexpected damage: %v", damage)
	}
	if !sameRecords(recs, got) {
		t.Fatal("records changed across reopen")
	}
	// Appending after reopen extends the same chain.
	extra := Record{PreEpoch: 99, Program: "cc", Query: "cc"}
	if err := j2.Append(extra); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, got, damage, err = openJournal(path, 5, binding)
	if err != nil || damage != nil {
		t.Fatalf("reopen after append: %v %v", err, damage)
	}
	if !sameRecords(append(append([]Record(nil), recs...), extra), got) {
		t.Fatal("appended record lost")
	}

	// A journal bound to a different snapshot must be refused outright.
	other := [32]byte{9}
	if _, _, _, err := openJournal(path, 5, other); err == nil {
		t.Fatal("mismatched binding accepted")
	}
	if _, _, _, err := openJournal(path, 6, binding); err == nil {
		t.Fatal("mismatched base epoch accepted")
	}
}

// TestJournalTruncateEveryByte is the torture test: for every possible
// truncation point, recovery must land on exactly the records whose bytes
// (and chain hash) fully survived, and never more.
func TestJournalTruncateEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.grj")
	binding := [32]byte{0xaa}
	j, err := createJournal(path, 1, binding)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(5)
	// Record the file size after each append: boundaries[i] = size with i
	// records fully on disk.
	boundaries := []int64{j.Size()}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, j.Size())
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	intactAt := func(cut int64) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				n = i
			}
		}
		return n
	}

	tp := filepath.Join(dir, "cut.grj")
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(tp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, damage, err := openJournal(tp, 1, binding)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		j2.Close()
		if cut < walHeaderSize {
			// Short header: the crash window between snapshot rename and
			// journal creation — recreated empty.
			if len(got) != 0 || damage != nil {
				t.Fatalf("cut %d: want empty recreate, got %d records damage=%v", cut, len(got), damage)
			}
			continue
		}
		want := intactAt(cut)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		if !sameRecords(recs[:want], got) {
			t.Fatalf("cut %d: recovered records differ", cut)
		}
		wantDamage := cut != boundaries[want]
		if (damage != nil) != wantDamage {
			t.Fatalf("cut %d: damage=%v, want damaged=%v", cut, damage, wantDamage)
		}
		// After recovery the file must be truncated to the intact prefix and
		// appendable.
		if fi, _ := os.Stat(tp); fi.Size() != boundaries[want] {
			t.Fatalf("cut %d: file not truncated to intact prefix: %d != %d", cut, fi.Size(), boundaries[want])
		}
	}
}

// TestJournalTamper flips bits through the record region and checks the
// chain refuses everything from the damaged record on.
func TestJournalTamper(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.grj")
	binding := [32]byte{0xbb}
	j, err := createJournal(path, 2, binding)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(4)
	boundaries := []int64{j.Size()}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, j.Size())
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	recordOf := func(off int64) int {
		for i := 1; i < len(boundaries); i++ {
			if off < boundaries[i] {
				return i - 1
			}
		}
		return len(recs)
	}

	tp := filepath.Join(dir, "tampered.grj")
	for off := int64(walHeaderSize); off < int64(len(full)); off++ {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x01
		if err := os.WriteFile(tp, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, damage, err := openJournal(tp, 2, binding)
		if err != nil {
			t.Fatalf("tamper at %d: %v", off, err)
		}
		j2.Close()
		want := recordOf(off)
		if len(got) > want {
			t.Fatalf("tamper at %d: served %d records past the break (want ≤ %d)", off, len(got), want)
		}
		if damage == nil {
			t.Fatalf("tamper at %d: no damage reported", off)
		}
		if !sameRecords(recs[:len(got)], got) {
			t.Fatalf("tamper at %d: recovered records differ", off)
		}
	}

	// Tampering with the header itself must be a hard refusal, not recovery.
	for _, off := range []int64{0, 9, 20, 30, 50} {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x01
		if err := os.WriteFile(tp, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if j2, _, _, err := openJournal(tp, 2, binding); err == nil {
			j2.Close()
			t.Fatalf("header tamper at %d accepted", off)
		}
	}
}

func TestStoreCreateOpenCompact(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := s.Graph("social")
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(11, true).Freeze()
	if err := gs.Create(g, 1); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(3)
	for _, r := range recs {
		if err := gs.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := gs.Stats()
	if st.SnapshotEpoch != 1 || st.JournalRecords != 3 {
		t.Fatalf("stats = %+v", st)
	}
	gs.Close()

	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "social" {
		t.Fatalf("List = %v, %v", names, err)
	}

	gs2, err := s.Graph("social")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := gs2.Open()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotEpoch != 1 || rec.Damage != nil {
		t.Fatalf("recovered epoch %d damage %v", rec.SnapshotEpoch, rec.Damage)
	}
	assertSameGraph(t, g, rec.Graph)
	if !sameRecords(recs, rec.Records) {
		t.Fatal("journal records changed across restart")
	}

	// Compact at a later epoch: journal resets, old pair is collected.
	g2 := testGraph(12, true).Freeze()
	if err := gs2.Compact(g2, 4); err != nil {
		t.Fatal(err)
	}
	st = gs2.Stats()
	if st.SnapshotEpoch != 4 || st.JournalRecords != 0 {
		t.Fatalf("post-compact stats = %+v", st)
	}
	if _, err := os.Stat(gs2.snapPath(1)); !os.IsNotExist(err) {
		t.Fatal("old snapshot not collected")
	}
	if _, err := os.Stat(gs2.walPath(1)); !os.IsNotExist(err) {
		t.Fatal("old journal not collected")
	}
	gs2.Close()

	gs3, _ := s.Graph("social")
	rec, err = gs3.Open()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotEpoch != 4 || len(rec.Records) != 0 {
		t.Fatalf("post-compact recovery: epoch %d, %d records", rec.SnapshotEpoch, len(rec.Records))
	}
	assertSameGraph(t, g2, rec.Graph)
	gs3.Close()
}

// TestStoreTornCompaction simulates a crash between writing the new pair and
// deleting the old one: both pairs on disk, startup must pick the newer.
// Then it corrupts the newer snapshot and checks startup falls back to the
// older pair.
func TestStoreTornCompaction(t *testing.T) {
	root := t.TempDir()
	s, _ := Open(root)
	gs, _ := s.Graph("g")
	g1 := testGraph(21, false).Freeze()
	if err := gs.Create(g1, 2); err != nil {
		t.Fatal(err)
	}
	gs.Close()

	// Hand-write a newer pair alongside, as a torn compaction would leave.
	g2 := testGraph(22, false).Freeze()
	binding, err := WriteSnapshotFile(gs.snapPath(9), g2, 9)
	if err != nil {
		t.Fatal(err)
	}
	j, err := createJournal(gs.walPath(9), 9, binding)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	gsA, _ := s.Graph("g")
	rec, err := gsA.Open()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotEpoch != 9 {
		t.Fatalf("picked epoch %d, want 9", rec.SnapshotEpoch)
	}
	assertSameGraph(t, g2, rec.Graph)
	gsA.Close()
	if _, err := os.Stat(gsA.snapPath(2)); !os.IsNotExist(err) {
		t.Fatal("superseded pair not collected")
	}

	// Corrupt the surviving snapshot: with no older fallback left, open
	// must refuse rather than serve damaged data.
	data, _ := os.ReadFile(gsA.snapPath(9))
	data[len(data)/2] ^= 0xff
	os.WriteFile(gsA.snapPath(9), data, 0o644)
	gsB, _ := s.Graph("g")
	if _, err := gsB.Open(); err == nil {
		t.Fatal("corrupt sole snapshot accepted")
	}
}

func TestStoreOpenEmpty(t *testing.T) {
	s, _ := Open(t.TempDir())
	gs, _ := s.Graph("nothing")
	if _, err := gs.Open(); err != ErrNoSnapshot {
		t.Fatalf("Open on empty dir: %v, want ErrNoSnapshot", err)
	}
}

// TestGraphTouchesNothing: naming a graph creates nothing on disk; only
// Create makes its directory.
func TestGraphTouchesNothing(t *testing.T) {
	root := t.TempDir()
	s, _ := Open(root)
	gs, err := s.Graph("x")
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(root); err != nil || len(ents) != 0 {
		t.Fatalf("root holds %v (err %v) after Graph(\"x\"), want nothing", ents, err)
	}
	if _, err := gs.Open(); err != ErrNoSnapshot {
		t.Fatalf("Open without a directory: %v, want ErrNoSnapshot", err)
	}
	if err := gs.Create(testGraph(5, true).Freeze(), 1); err != nil {
		t.Fatal(err)
	}
	gs.Close()
	if names, err := s.List(); err != nil || !reflect.DeepEqual(names, []string{"x"}) {
		t.Fatalf("List after Create = %v, %v", names, err)
	}
}

// faultyFile fails the journal's next Write (after writing half of it), its
// next Sync, or every Truncate, as armed.
type faultyFile struct {
	*os.File
	shortWrite, failSync, failTruncate bool
}

var errInjected = errors.New("injected I/O fault")

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.shortWrite {
		f.shortWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

// TestJournalFailedAppend: append A, fail B's write or fsync, append C,
// reopen. A failed append leaves no bytes behind it, so recovery yields
// [A, C], or [A] with C refused — never B, and never without an
// acknowledged record.
func TestJournalFailedAppend(t *testing.T) {
	recs := testRecords(3)
	a, b, c := recs[0], recs[1], recs[2]
	for _, tc := range []struct {
		name    string
		arm     func(*faultyFile)
		refuseC bool // the fault leaves the journal failed
	}{
		{"short write", func(f *faultyFile) { f.shortWrite = true }, false},
		{"failed fsync", func(f *faultyFile) { f.failSync = true }, true},
		{"short write, failed cut", func(f *faultyFile) { f.shortWrite, f.failTruncate = true, true }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.grj")
			binding := [32]byte{0xcc}
			j, err := createJournal(path, 1, binding)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(a); err != nil {
				t.Fatal(err)
			}
			ff := &faultyFile{File: j.f.(*os.File)}
			j.f = ff
			tc.arm(ff)
			if err := j.Append(b); !errors.Is(err, errInjected) {
				t.Fatalf("append B under a fault: %v, want the injected error", err)
			}
			if j.Records() != 1 {
				t.Fatalf("journal counts %d records after a refused append, want 1", j.Records())
			}
			errC := j.Append(c)
			j.Close()

			j2, got, _, err := openJournal(path, 1, binding)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			want := []Record{a, c}
			if errC != nil {
				want = want[:1]
			}
			if !sameRecords(want, got) {
				var queries []string
				for _, r := range got {
					queries = append(queries, r.Query)
				}
				t.Fatalf("recovered %q with C's append returning %v; want A then C if C was acknowledged, never B", queries, errC)
			}
			if tc.refuseC != (errC != nil) {
				t.Fatalf("append C after the fault: %v, want refused=%v", errC, tc.refuseC)
			}
		})
	}
}

func TestGraphNameValidation(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, bad := range []string{"", "..", "../x", "a/b", ".hidden", "a b", "x\x00y"} {
		if _, err := s.Graph(bad); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"g", "social-2024", "A_b.c"} {
		if _, err := s.Graph(good); err != nil {
			t.Fatalf("name %q rejected: %v", good, err)
		}
	}
}
