package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/engine"
)

// listDataFiles returns the sorted base names in dir matching suffix.
func listDataFiles(t testing.TB, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// appendBatches drives n append-only batches through the store (no
// window changes, so the delta chain never breaks on an epoch bump).
func appendBatches(t testing.TB, s *Store, eng *engine.Engine, rng *rand.Rand, n int) {
	t.Helper()
	cards := eng.Cards()
	for i := 0; i < n; i++ {
		if err := s.Append(randomBatch(rng, cards, 1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaSnapshotChainRecover is the core delta round trip: snapshots
// after the initial full image are deltas, a fresh store recovers the
// base plus the whole chain, and the recovered store keeps extending
// the chain.
func TestDeltaSnapshotChainRecover(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(21))

	for round := 0; round < 3; round++ {
		appendBatches(t, s, eng, rng, 4)
		res, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delta {
			t.Fatalf("round %d: snapshot was a full image, want a delta", round)
		}
	}
	if st := s.Stats(); st.DeltaSnapshots != 3 || st.DeltaChainLength != 3 {
		t.Fatalf("stats: %d delta snapshots, chain %d; want 3, 3", st.DeltaSnapshots, st.DeltaChainLength)
	}
	if snaps := listDataFiles(t, dir, ".snap"); len(snaps) != 1 {
		t.Fatalf("full snapshots on disk: %v, want the attach image only", snaps)
	}
	if deltas := listDataFiles(t, dir, ".delta"); len(deltas) != 3 {
		t.Fatalf("deltas on disk: %v, want 3", deltas)
	}

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 3 {
		t.Fatalf("recovery applied %d deltas, want 3", info.DeltasApplied)
	}
	if len(info.SkippedSnapshots) != 0 {
		t.Fatalf("recovery skipped files: %v", info.SkippedSnapshots)
	}
	assertEquivalent(t, eng, recovered)

	// A clean recovery stands exactly at the persisted tip, so the
	// chain keeps extending: no-op snapshots are skipped, the next
	// mutation's snapshot is again a delta.
	if res, err := s2.Snapshot(); err != nil || !res.Skipped {
		t.Fatalf("snapshot at the recovered tip: res=%+v err=%v, want skipped", res, err)
	}
	appendBatches(t, s2, recovered, rng, 2)
	res, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta {
		t.Fatal("post-recovery snapshot was a full image, want a delta")
	}
}

// TestDeltaSnapshotSmallerThanFull pins the size claim behind the
// design: a delta after a small batch on a larger state is much
// smaller than the full image.
func TestDeltaSnapshotSmallerThanFull(t *testing.T) {
	// A schema wide enough that 2000 rows spread across far more
	// distinct combinations than a 20-row batch can touch — the ratio
	// the test pins is meaningless on the tiny 3-attribute schema.
	attrs := make([]dataset.Attribute, 4)
	for i := range attrs {
		vals := make([]string, 8)
		for v := range vals {
			vals[v] = fmt.Sprintf("v%d", v)
		}
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Values: vals}
	}
	schema := dataset.MustSchema(attrs)

	dir := t.TempDir()
	s := openStore(t, dir)
	eng := engine.New(schema, engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	if err := s.Append(randomBatch(rng, eng.Cards(), 2000)); err != nil {
		t.Fatal(err)
	}
	full, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta {
		// The attach image was captured at generation 0 with nothing
		// in the mutation logs' tail beyond... large single batch is
		// still one generation, so a delta is expressible; force the
		// comparison against a full image instead.
		t.Logf("first snapshot was a delta (%d bytes); writing a full image for the size baseline", full.Bytes)
	}
	st := eng.ExportState()
	_, fullBytes, err := writeSnapshotFile(t.TempDir(), st)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Append(randomBatch(rng, eng.Cards(), 20)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta {
		t.Fatal("small-batch snapshot was a full image, want a delta")
	}
	if res.Bytes*4 > fullBytes {
		t.Fatalf("delta is %d bytes vs %d full — not O(changes)", res.Bytes, fullBytes)
	}
}

// TestDeltaChainCompaction checks MaxDeltaChain forces a fresh full
// image, after which the chain restarts.
func TestDeltaChainCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxDeltaChain: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(testSchema(), engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	wantDelta := []bool{true, true, false, true}
	for i, want := range wantDelta {
		appendBatches(t, s, eng, rng, 2)
		res, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if res.Delta != want {
			t.Fatalf("snapshot %d: delta=%v, want %v", i, res.Delta, want)
		}
	}
	if st := s.Stats(); st.DeltaChainLength != 1 {
		t.Fatalf("chain length after compaction + one delta = %d, want 1", st.DeltaChainLength)
	}
	s2 := openStore(t, dir)
	recovered, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eng, recovered)
}

// TestDeltaWindowEpochForcesFull checks that a window-log creation
// (inexpressible against the previous baseline) degrades to a full
// snapshot, and the chain resumes afterwards.
func TestDeltaWindowEpochForcesFull(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(17))
	appendBatches(t, s, eng, rng, 4)
	if err := s.SetWindow(15); err != nil {
		t.Fatal(err)
	}
	res, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta {
		t.Fatal("snapshot across a window-log creation was a delta")
	}
	// Within the new epoch (appends evicting through the window), the
	// next snapshot is a delta again.
	appendBatches(t, s, eng, rng, 4)
	res, err = s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta {
		t.Fatal("windowed snapshot within one epoch was a full image, want a delta")
	}
	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 1 {
		t.Fatalf("recovery applied %d deltas, want 1", info.DeltasApplied)
	}
	assertEquivalent(t, eng, recovered)
}

// TestDeltaDamagedMidChain bit-flips a mid-chain delta: recovery must
// quarantine it, skip the now-unchained suffix intact, and cover the
// gap from the WAL — ending query-equivalent to the survivor.
func TestDeltaDamagedMidChain(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(29))

	for round := 0; round < 3; round++ {
		appendBatches(t, s, eng, rng, 3)
		res, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delta {
			t.Fatalf("round %d: want a delta", round)
		}
	}
	deltas := listDataFiles(t, dir, ".delta")
	if len(deltas) != 3 {
		t.Fatalf("deltas on disk: %v, want 3", deltas)
	}
	mid := filepath.Join(dir, deltas[1])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 1 {
		t.Fatalf("recovery applied %d deltas, want 1 (the pre-damage link)", info.DeltasApplied)
	}
	if len(info.SkippedSnapshots) != 1 || !strings.Contains(info.SkippedSnapshots[0], deltas[1]) {
		t.Fatalf("skipped files = %v, want the damaged delta", info.SkippedSnapshots)
	}
	if info.Replayed == 0 {
		t.Error("no WAL records replayed across the damaged link")
	}
	if _, err := os.Stat(mid + ".corrupt"); err != nil {
		t.Errorf("damaged delta was not quarantined: %v", err)
	}
	// The unchained third delta is skipped but left intact.
	if _, err := os.Stat(filepath.Join(dir, deltas[2])); err != nil {
		t.Errorf("unchained delta was removed: %v", err)
	}
	assertEquivalent(t, eng, recovered)

	// The engine replayed past the persisted tip, so the baseline is
	// unusable: the next snapshot must compact to a full image.
	appendBatches(t, s2, recovered, rng, 1)
	res, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta {
		t.Fatal("snapshot after a WAL-assisted recovery was a delta against an unpersisted baseline")
	}
}

// TestDeltaCleanupKeepsChains pins retention: the two newest full
// images stay, deltas and WAL segments older than the older kept full
// go, and deltas between the kept fulls survive as the older full's
// chain.
func TestDeltaCleanupKeepsChains(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxDeltaChain: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(testSchema(), engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))

	// Attach wrote full@0. MaxDeltaChain=1 alternates delta, full,
	// delta, full: fulls at 0, g2, g4 with deltas at g1, g3 between.
	wantDelta := []bool{true, false, true, false}
	var gens []uint64
	for i, want := range wantDelta {
		appendBatches(t, s, eng, rng, 2)
		res, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if res.Delta != want {
			t.Fatalf("snapshot %d: delta=%v, want %v", i, res.Delta, want)
		}
		gens = append(gens, res.Generation)
	}

	snaps := listDataFiles(t, dir, ".snap")
	if len(snaps) != 2 {
		t.Fatalf("kept fulls: %v, want the two newest", snaps)
	}
	deltas := listDataFiles(t, dir, ".delta")
	if len(deltas) != 1 || deltas[0] != deltaName(gens[2]) {
		t.Fatalf("kept deltas: %v, want only %s (the older kept full's chain)", deltas, deltaName(gens[2]))
	}
	for _, w := range listDataFiles(t, dir, ".wal") {
		var gen uint64
		if _, err := fmtSscanGen(w, "wal-", ".wal", &gen); err != nil {
			t.Fatalf("unparseable WAL name %s: %v", w, err)
		}
		if gen < gens[1] {
			t.Errorf("WAL segment %s predates the older kept full", w)
		}
	}

	s2 := openStore(t, dir)
	recovered, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eng, recovered)
}

// TestDeltaParkRestore pins the registry eviction path: Park writes a
// delta, and the reopened store continues the chain without an
// intervening full image.
func TestDeltaParkRestore(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(53))
	appendBatches(t, s, eng, rng, 3)
	if err := s.Park(); err != nil {
		t.Fatal(err)
	}
	if deltas := listDataFiles(t, dir, ".delta"); len(deltas) != 1 {
		t.Fatalf("deltas after park: %v, want 1", deltas)
	}

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 1 {
		t.Fatalf("recovery applied %d deltas, want 1", info.DeltasApplied)
	}
	assertEquivalent(t, eng, recovered)
	appendBatches(t, s2, recovered, rng, 1)
	res, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta {
		t.Fatal("post-park snapshot was a full image, want the chain to continue")
	}
}

// fmtSscanGen parses the 16-hex-digit generation out of a data file
// name.
func fmtSscanGen(name, prefix, suffix string, gen *uint64) (int, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	var g uint64
	for _, c := range hex {
		switch {
		case c >= '0' && c <= '9':
			g = g<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			g = g<<4 | uint64(c-'a'+10)
		default:
			return 0, errors.New("bad hex digit")
		}
	}
	*gen = g
	return 1, nil
}

// TestDeltaRefusesUnorderedKeys: a delta's count and pending-delete
// keys must strictly increase. A delta file whose keys repeat or go
// backwards (its CRC intact) is ErrCorrupt at read time, and recovery
// quarantines it and restores the base state plus the WAL, whole.
func TestDeltaRefusesUnorderedKeys(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(33))
	appendBatches(t, s, eng, rng, 8)
	if err := s.SetWindow(20); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Snapshot(); err != nil || res.Delta {
		t.Fatalf("snapshot after a window change: %+v, %v; want a full image", res, err)
	}
	appendBatches(t, s, eng, rng, 3)
	if err := s.Delete(deletableRows(rng, eng, 4)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Snapshot()
	if err != nil || !res.Delta {
		t.Fatalf("snapshot: %+v, %v; want a delta", res, err)
	}
	data, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	dl, dim, err := ReadDeltaBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dl.Counts) < 2 || len(dl.PendingDeletes) < 2 {
		t.Fatalf("precondition: the delta carries %d counts and %d pending deletes, want 2 of each",
			len(dl.Counts), len(dl.PendingDeletes))
	}

	var bad []byte
	for _, tc := range []struct {
		name    string
		corrupt func(d *engine.StateDelta)
	}{
		{"repeated count key", func(d *engine.StateDelta) { d.Counts[1].Key = d.Counts[0].Key }},
		{"backward count key", func(d *engine.StateDelta) { d.Counts[0], d.Counts[1] = d.Counts[1], d.Counts[0] }},
		{"repeated pending-delete key", func(d *engine.StateDelta) { d.PendingDeletes[1].Key = d.PendingDeletes[0].Key }},
		{"backward pending-delete key", func(d *engine.StateDelta) {
			d.PendingDeletes[0], d.PendingDeletes[1] = d.PendingDeletes[1], d.PendingDeletes[0]
		}},
	} {
		d := *dl
		d.Counts, d.PendingDeletes = slices.Clone(dl.Counts), slices.Clone(dl.PendingDeletes)
		tc.corrupt(&d)
		var buf bytes.Buffer
		if _, err := WriteDelta(&buf, &d, dim); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadDeltaBytes(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: read error %v, want ErrCorrupt", tc.name, err)
		}
		bad = buf.Bytes()
	}

	if err := os.WriteFile(res.Path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 0 || len(info.SkippedSnapshots) != 1 || !strings.Contains(info.SkippedSnapshots[0], filepath.Base(res.Path)) {
		t.Fatalf("recovery applied %d deltas and skipped %v, want the unordered delta skipped", info.DeltasApplied, info.SkippedSnapshots)
	}
	if _, err := os.Stat(res.Path + ".corrupt"); err != nil {
		t.Errorf("the unordered delta was not quarantined: %v", err)
	}
	assertEquivalent(t, eng, recovered)
	if got, want := countsOf(recovered.ExportState()), countsOf(eng.ExportState()); !maps.Equal(got, want) {
		t.Fatalf("recovered counts %v, want %v", got, want)
	}
}

// FuzzReadDelta hammers the delta decoder with arbitrary bytes, read
// both as a whole file and as a payload framed with a valid header and
// CRC, and applies whatever parses onto a fixed base state: every step
// must return a typed error or succeed, never panic, and a refused
// Apply must leave the base exactly as it was.
func FuzzReadDelta(f *testing.F) {
	eng := engine.NewSharded(testSchema(), 2, engine.Options{Workers: 1})
	driveEngine(f, eng, 7, 40)
	eng.SetWindow(30)
	capture := eng.CaptureState()
	base := capture.Baseline()
	driveEngine(f, eng, 8, 20)
	dl, _, ok := eng.CaptureDelta(base)
	if !ok {
		f.Fatal("the seed delta is not expressible")
	}
	var seed, full bytes.Buffer
	if _, err := WriteDelta(&seed, dl, len(eng.Cards())); err != nil {
		f.Fatal(err)
	}
	if _, err := WriteSnapshot(&full, capture.State()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[snapshotHeaderSize : seed.Len()-4])
	f.Add(withVersion(seed.Bytes(), snapshotVersion))
	f.Add([]byte("COVSNAP\x00 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := make([]byte, snapshotHeaderSize, snapshotHeaderSize+len(data)+4)
		copy(framed, snapshotMagic[:])
		binary.LittleEndian.PutUint32(framed[8:], snapshotVersionDelta)
		binary.LittleEndian.PutUint64(framed[12:], uint64(len(data)))
		framed = binary.LittleEndian.AppendUint32(append(framed, data...), crc32.Checksum(data, castagnoli))
		for _, img := range [][]byte{data, framed} {
			dl, _, err := ReadDeltaBytes(img)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
					!errors.Is(err, ErrVersion) && !errors.Is(err, ErrBadMagic) {
					t.Fatalf("untyped read error: %v", err)
				}
				continue
			}
			st, err := ReadSnapshotBytes(full.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			pristine, err := ReadSnapshotBytes(full.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if err := dl.Apply(st); err != nil {
				if !reflect.DeepEqual(st, pristine) {
					t.Fatalf("a refused apply (%v) changed the base state", err)
				}
				continue
			}
			// An applied delta yields a state that restores or is refused
			// by validation — no panics either way.
			if _, err := engine.NewFromState(st, engine.Options{}); err != nil {
				t.Logf("applied but rejected by validation: %v", err)
			}
		}
	})
}
