package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coverage/internal/engine"
	"coverage/internal/pattern"
)

// copyChain copies the snapshot chain of src — its full and delta
// snapshot files, what a follower fetches from its leader's /chain —
// into a new directory and returns it.
func copyChain(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !(strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".delta")) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverStore opens dir and recovers the engine it holds.
func recoverStore(t testing.TB, dir string, opts Options) (*Store, *engine.Engine) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// frameEnds returns the offset just past each whole record of a feed,
// read from the records' length fields alone.
func frameEnds(feed []byte) []int {
	var ends []int
	for off := 0; off+8 <= len(feed); {
		off += 8 + int(binary.LittleEndian.Uint32(feed[off:]))
		if off > len(feed) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// assertSameRows fails unless got holds the rows of want: counts, row
// total, generation, window bound, window ring and pending deletes.
// The mutation logs and operation counters are left out: a replayed
// run logs each combination's net change once, where the leader logged
// every record.
func assertSameRows(t testing.TB, want, got *engine.State) {
	t.Helper()
	switch {
	case !maps.Equal(countsOf(want), countsOf(got)):
		t.Fatalf("counts %v, want %v", countsOf(got), countsOf(want))
	case want.Rows != got.Rows || want.Generation != got.Generation:
		t.Fatalf("rows %d at generation %d, want %d at %d", got.Rows, got.Generation, want.Rows, want.Generation)
	case want.Window != got.Window || !slices.Equal(want.WindowLog, got.WindowLog):
		t.Fatalf("window %d ring %q, want %d ring %q", got.Window, got.WindowLog, want.Window, want.WindowLog)
	case !slices.Equal(want.PendingDeletes, got.PendingDeletes) || want.Tombstones != got.Tombstones:
		t.Fatalf("pending deletes %v (%d tombstones), want %v (%d)", got.PendingDeletes, got.Tombstones, want.PendingDeletes, want.Tombstones)
	}
}

// randomStoreOp commits one random mutation through s: an append, a
// delete of rows present in eng, or a window change. It reports false
// when it found no row to delete and committed nothing.
func randomStoreOp(t testing.TB, s *Store, eng *engine.Engine, rng *rand.Rand) bool {
	t.Helper()
	var err error
	switch r := rng.Intn(20); {
	case r < 11:
		err = s.Append(randomBatch(rng, eng.Cards(), 1+rng.Intn(40)))
	case r < 17:
		rows := deletableRows(rng, eng, 1+rng.Intn(8))
		if len(rows) == 0 {
			return false
		}
		err = s.Delete(rows)
	default:
		maxRows := 0
		if rng.Intn(3) > 0 {
			maxRows = 20 + rng.Intn(300)
		}
		err = s.SetWindow(maxRows)
	}
	if err != nil {
		t.Fatal(err)
	}
	return true
}

// TestApplyWALTornTail feeds a follower ever longer prefixes of the
// leader's feed, most of them cut mid-record: each apply takes the
// whole records past the follower's generation and leaves the torn
// rest for the next, without an error, and the follower's log ends up
// byte for byte the leader's.
func TestApplyWALTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	followerDir := copyChain(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Append([][]uint8{{0, 0, uint8(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetWindow(10); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([][]uint8{{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	feed, _, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Engine().ExportState()
	s.Close()
	ends := frameEnds(feed)
	if len(ends) != 5 || ends[4] != len(feed) {
		t.Fatalf("feed frames end at %v of %d bytes, want 5 records", ends, len(feed))
	}

	fs, feng := recoverStore(t, followerDir, Options{})
	defer fs.Close()
	whole := 0
	for cut := 0; cut <= len(feed); cut++ {
		applied, err := fs.ApplyWAL(feed[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		prev := whole
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if applied != whole-prev || feng.Generation() != uint64(whole) {
			t.Fatalf("cut %d: applied %d, at generation %d; want %d, at %d", cut, applied, feng.Generation(), whole-prev, whole)
		}
	}
	logged, _, err := fs.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, feed) {
		t.Fatalf("follower logged %x, leader %x", logged, feed)
	}
	assertSameRows(t, want, feng.ExportState())
}

// TestApplyWALGap: a feed whose next record is past the follower's
// generation plus one is ErrGone, after the contiguous records before
// the hole are applied and logged.
func TestApplyWALGap(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	followerDir := copyChain(t, dir)
	for i := 0; i < 4; i++ {
		if err := s.Append([][]uint8{{1, uint8(i % 3), uint8(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	feed, _, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	ends := frameEnds(feed)

	fs, feng := recoverStore(t, followerDir, Options{})
	defer fs.Close()
	commits := fs.Stats().WALGroupCommits
	// Generations 2–4 on a follower at 0.
	if applied, err := fs.ApplyWAL(feed[ends[0]:]); !errors.Is(err, ErrGone) || applied != 0 {
		t.Fatalf("feed from generation 2: applied %d, err %v; want 0, ErrGone", applied, err)
	}
	if feng.Generation() != 0 || fs.Stats().WALGroupCommits != commits {
		t.Fatal("a refused feed moved the engine or wrote the log")
	}
	// Generations 1, 2 and 4.
	spliced := slices.Concat(feed[:ends[1]], feed[ends[2]:])
	if applied, err := fs.ApplyWAL(spliced); !errors.Is(err, ErrGone) || applied != 2 {
		t.Fatalf("feed with a hole after generation 2: applied %d, err %v; want 2, ErrGone", applied, err)
	}
	logged, _, err := fs.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if feng.Generation() != 2 || !bytes.Equal(logged, feed[:ends[1]]) {
		t.Fatalf("at generation %d with %d logged bytes, want 2 and the leader's first %d", feng.Generation(), len(logged), ends[1])
	}
}

// TestApplyWALRefusal: a record the engine refuses stops the apply
// with ErrCorrupt, the records applied before it are logged, and the
// store stays healthy — its log recovers to the same engine.
func TestApplyWALRefusal(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	followerDir := copyChain(t, dir)
	if err := s.Append([][]uint8{{0, 0, 0}, {1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWindow(100); err != nil {
		t.Fatal(err)
	}
	feed, _, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.ExportState()
	s.Close()
	// A delete of a row the log never appended.
	w := &walWriter{dim: 3}
	bad, err := w.encodeRecord(slices.Clone(feed), opDelete, 3, [][]uint8{{1, 2, 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}

	fs, feng := recoverStore(t, followerDir, Options{})
	applied, err := fs.ApplyWAL(bad)
	if !errors.Is(err, ErrCorrupt) || applied != 2 {
		t.Fatalf("applied %d, err %v; want 2, ErrCorrupt", applied, err)
	}
	assertSameRows(t, want, feng.ExportState())
	logged, _, err := fs.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, feed) {
		t.Fatalf("follower logged %x, want the two applied records %x", logged, feed)
	}
	if err := fs.Append([][]uint8{{0, 1, 2}}); err != nil {
		t.Fatalf("store broken by a refused record: %v", err)
	}
	want = feng.ExportState()
	fs.Close()
	fs, feng = recoverStore(t, followerDir, Options{})
	defer fs.Close()
	assertSameRows(t, want, feng.ExportState())
}

// TestApplyWALUnavailable: an unattached store refuses a feed, and a
// WAL write failure after the engine applied it breaks the store until
// a snapshot, like a failed group commit.
func TestApplyWALUnavailable(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	followerDir := copyChain(t, dir)
	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	feed, _, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := openStore(t, t.TempDir()).ApplyWAL(feed); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unattached store: %v, want ErrUnavailable", err)
	}
	fs, feng := recoverStore(t, followerDir, Options{})
	defer fs.Close()
	fs.mu.Lock()
	fs.wal.f.Close() // sabotage the segment handle
	fs.mu.Unlock()
	if applied, err := fs.ApplyWAL(feed); !errors.Is(err, ErrUnavailable) || applied != 1 {
		t.Fatalf("failed write: applied %d, err %v; want 1, ErrUnavailable", applied, err)
	}
	if _, err := fs.ApplyWAL(feed); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("store not fail-stopped: %v", err)
	}
	if _, err := fs.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append([][]uint8{{1, 1, 1}}); err != nil || feng.Generation() != 2 {
		t.Fatalf("append after rescue snapshot: %v, generation %d", err, feng.Generation())
	}
}

// TestApplyWALConcurrentSnapshots: a follower applies a feed a few
// records at a time while another goroutine snapshots its store (each
// snapshot rotates the WAL) and reads its engine. Every applied record
// lands in the segment current at its apply, so a restart recovers the
// leader's rows.
func TestApplyWALConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	followerDir := copyChain(t, dir)
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		randomStoreOp(t, s, eng, rng)
	}
	feed, _, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.ExportState()
	s.Close()
	ends := frameEnds(feed)

	fs, feng := recoverStore(t, followerDir, Options{MaxDeltaChain: 2})
	done := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		defer close(snapErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := fs.Snapshot(); err != nil {
				snapErr <- err
				return
			}
			if _, err := feng.Coverage(pattern.Pattern{pattern.Wildcard, 0, pattern.Wildcard}); err != nil {
				snapErr <- err
				return
			}
		}
	}()
	for lo := 0; lo < len(ends); lo += 7 {
		from := 0
		if lo > 0 {
			from = ends[lo-1]
		}
		hi := min(lo+7, len(ends))
		if applied, err := fs.ApplyWAL(feed[from:ends[hi-1]]); err != nil || applied != hi-lo {
			t.Fatalf("records %d–%d: applied %d, err %v", lo, hi-1, applied, err)
		}
	}
	close(done)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, want, feng.ExportState())
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs, feng = recoverStore(t, followerDir, Options{})
	defer fs.Close()
	assertSameRows(t, want, feng.ExportState())
}

// FuzzApplyWAL builds a leader history of appends, deletes and window
// changes through a store, recovers a follower from the leader's
// snapshot chain at a fuzzed generation g, and hands it the leader's
// feed from g cut at a fuzzed offset, perhaps with one byte flipped.
// The follower must apply exactly the whole records before the damage
// in one group commit, log the leader's bytes for them, and hold the
// leader's rows at the generation reached — live, and again after
// Close, Open and Recover.
func FuzzApplyWAL(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint32(1<<31), uint32(0), uint8(0))
	f.Add(int64(2), uint8(60), uint8(12), uint32(5000), uint32(3), uint8(1))
	f.Add(int64(3), uint8(30), uint8(29), uint32(77), uint32(0), uint8(2))
	f.Add(int64(4), uint8(55), uint8(7), uint32(1<<20), uint32(901), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nops, gAt uint8, cut, flip uint32, shards uint8) {
		dir := t.TempDir()
		s := openStore(t, dir)
		eng := engine.New(testSchema(), engine.Options{Shards: 2})
		if err := s.Attach(eng); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(nops)%60
		states := map[uint64]*engine.State{0: eng.ExportState()}
		var followerDir string
		var g uint64
		for i := 0; i < n; i++ {
			if i == int(gAt)%n {
				if _, err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				followerDir, g = copyChain(t, dir), eng.Generation()
			}
			if randomStoreOp(t, s, eng, rng) {
				states[eng.Generation()] = eng.ExportState()
			}
		}
		feed, _, err := s.WALSince(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(feed)

		data := slices.Clone(feed[:int(cut)%(len(feed)+1)])
		intact := len(data)
		if flip%2 == 1 && len(data) > 0 {
			intact = int(flip>>1) % len(data)
			data[intact] ^= byte(1 + (flip>>9)%255)
		}
		want := 0
		for want < len(ends) && ends[want] <= intact {
			want++
		}
		logEnd := 0
		if want > 0 {
			logEnd = ends[want-1]
		}

		opts := Options{Engine: engine.Options{Shards: 1 + int(shards)%3}}
		fs, feng := recoverStore(t, followerDir, opts)
		commits := fs.Stats().WALGroupCommits
		applied, err := fs.ApplyWAL(data)
		if err != nil {
			t.Fatalf("ApplyWAL: %v", err)
		}
		if applied != want {
			t.Fatalf("applied %d records, the intact prefix holds %d", applied, want)
		}
		if got := fs.Stats().WALGroupCommits - commits; got != min(int64(want), 1) {
			t.Fatalf("%d group commits for %d records, want one per feed", got, want)
		}
		logged, _, err := fs.WALSince(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logged, feed[:logEnd]) {
			t.Fatalf("follower logged %d bytes that are not the leader's %d", len(logged), logEnd)
		}
		wantState := states[g+uint64(want)]
		assertSameRows(t, wantState, feng.ExportState())
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		fs, feng = recoverStore(t, followerDir, opts)
		defer fs.Close()
		assertSameRows(t, wantState, feng.ExportState())
	})
}
