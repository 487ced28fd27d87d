package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/engine"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// attachFresh builds an empty engine over the test schema and attaches
// it to a new store in dir.
func attachFresh(t testing.TB, dir string) (*Store, *engine.Engine) {
	t.Helper()
	s := openStore(t, dir)
	eng := engine.New(testSchema(), engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// TestRecoverCompactsOnce: a WAL of 4 096-row append records — what an
// NDJSON bulk load writes — replays without rebuilding a base, and
// Recover then rebuilds each shard's base at most once, leaves no core
// past the compaction threshold, and answers as the engine that wrote
// the log.
func TestRecoverCompactsOnce(t *testing.T) {
	const rows, chunk, shards = 100000, 4096, 2
	ds := datagen.Zipf(rows, []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 1.2, 42)
	opts := engine.Options{Shards: shards}
	dir := t.TempDir()
	s := openStore(t, dir)
	eng := engine.New(ds.Schema(), opts)
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	records := 0
	for lo := 0; lo < rows; lo += chunk {
		batch := make([][]uint8, 0, chunk)
		for i := lo; i < min(lo+chunk, rows); i++ {
			batch = append(batch, ds.Row(i))
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		records++
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != records {
		t.Fatalf("replayed %d WAL records, want %d", info.Replayed, records)
	}
	for i, sh := range got.Stats().Shards {
		if sh.Compactions > 1 {
			t.Errorf("shard %d rebuilt its base %d times during recovery, want at most once", i, sh.Compactions)
		}
	}
	if n := got.Compact(); n != 0 {
		t.Errorf("%d cores left past the compaction threshold after recovery", n)
	}

	cards := ds.Cards()
	rng := rand.New(rand.NewSource(3))
	ps := make([]pattern.Pattern, 64)
	for i := range ps {
		ps[i] = pattern.All(len(cards))
		for j, c := range cards {
			if rng.Intn(2) == 0 {
				ps[i][j] = uint8(rng.Intn(c))
			}
		}
	}
	want, err := eng.CoverageBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.CoverageBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if have[i] != want[i] {
			t.Fatalf("cov(%v) = %d after recovery, %d before", ps[i], have[i], want[i])
		}
	}
}

func TestStoreRecoverNoState(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, _, err := s.Recover(); !errors.Is(err, ErrNoState) {
		t.Fatalf("err = %v, want ErrNoState", err)
	}
}

func TestStoreAttachRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if err := s2.Attach(engine.New(testSchema(), engine.Options{})); err == nil {
		t.Fatal("Attach over existing state did not fail")
	}
}

// TestStoreCrashRecover is the core in-process crash simulation: the
// store is abandoned without any shutdown (every acknowledged record
// is already in the kernel), reopened, and the recovered engine must
// be query-equivalent to the survivor.
func TestStoreCrashRecover(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(11))
	driveStore(t, s, eng, rng, 60)

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 {
		t.Error("no WAL records replayed despite mutations")
	}
	assertEquivalent(t, eng, recovered)

	// The recovered store keeps accepting and logging mutations.
	driveStore(t, s2, recovered, rng, 20)
	s3 := openStore(t, dir)
	recovered2, _, err := s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, recovered, recovered2)
}

// driveStore applies random mutations through the store, mirroring
// nothing: the engine attached to the store is itself the reference.
func driveStore(t testing.TB, s *Store, eng *engine.Engine, rng *rand.Rand, ops int) {
	t.Helper()
	cards := eng.Cards()
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			if err := s.Append(randomBatch(rng, cards, 1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			rows := deletableRows(rng, eng, 1+rng.Intn(3))
			if len(rows) == 0 {
				continue
			}
			if err := s.Delete(rows); err != nil {
				t.Fatal(err)
			}
		case r < 9:
			n := 0
			if rng.Intn(3) > 0 {
				n = 5 + rng.Intn(30)
			}
			if err := s.SetWindow(n); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := eng.MUPs(mup.Options{Threshold: int64(1 + rng.Intn(3))}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStoreSnapshotRotation verifies that a snapshot truncates the
// replay tail: after a snapshot plus k mutations, recovery replays
// exactly k records, and files older than the retention window are
// pruned.
func TestStoreSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(21))
	driveStore(t, s, eng, rng, 40)

	res, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || res.Generation != eng.Generation() {
		t.Fatalf("snapshot = %+v, engine generation %d", res, eng.Generation())
	}
	// Immediately snapshotting again is a no-op.
	if res2, err := s.Snapshot(); err != nil || !res2.Skipped {
		t.Fatalf("idle snapshot = %+v, err %v, want skipped", res2, err)
	}

	const tail = 7
	for i := 0; i < tail; i++ {
		if err := s.Append([][]uint8{{0, 1, 2}}); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotGeneration != res.Generation {
		t.Errorf("recovered from generation %d, want %d", info.SnapshotGeneration, res.Generation)
	}
	if info.Replayed != tail {
		t.Errorf("replayed %d records, want only the %d-record tail", info.Replayed, tail)
	}
	assertEquivalent(t, eng, recovered)

	// Retention: several more snapshot cycles leave at most two
	// snapshots and no segment older than the older kept snapshot.
	for i := 0; i < 3; i++ {
		driveStore(t, s2, recovered, rng, 10)
		if _, err := s2.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _, err := s2.genFiles("snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Errorf("%d snapshots retained, want at most 2: %v", len(snaps), snaps)
	}
	wals, walGens, err := s2.genFiles("wal-", ".wal")
	if err != nil {
		t.Fatal(err)
	}
	_, snapGens, _ := s2.genFiles("snap-", ".snap")
	for i := range wals {
		if walGens[i] < snapGens[0] {
			t.Errorf("segment %s predates oldest kept snapshot %d", wals[i], snapGens[0])
		}
	}
}

// TestStoreCorruptSnapshotFallsBack damages the newest snapshot on
// disk; recovery must fall back to the previous one and reach the
// same state through the longer WAL tail.
func TestStoreCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(31))
	driveStore(t, s, eng, rng, 30)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	driveStore(t, s, eng, rng, 20)

	snaps, _, err := s.genFiles("snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.SkippedSnapshots) != 1 {
		t.Errorf("skipped snapshots = %v, want exactly the damaged one", info.SkippedSnapshots)
	}
	if info.Segments < 2 {
		t.Errorf("replayed %d segments, want both (pre- and post-snapshot)", info.Segments)
	}
	assertEquivalent(t, eng, recovered)

	// The damaged file is quarantined: renamed out of the snap-*
	// namespace so retention never counts it against the readable
	// fallback.
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Errorf("damaged snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(newest); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("damaged snapshot still in place: %v", err)
	}
	// Retention after the next snapshot keeps readable snapshots
	// only, preserving the fallback guarantee.
	if err := s2.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snaps2, _, err := s2.genFiles("snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range snaps2 {
		if _, err := readSnapshotFile(p); err != nil {
			t.Errorf("retained snapshot %s is unreadable: %v", p, err)
		}
	}
}

// TestStoreOldVersionSnapshotFallsBack: a newest snapshot in the v2
// layout is refused with ErrVersion, so recovery falls back to the
// older v3 file and replays the WAL from there. The refused file is
// intact, not damaged: it stays where it is, not renamed to .corrupt,
// and the skipped entry names its version.
func TestStoreOldVersionSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(37))
	driveStore(t, s, eng, rng, 30)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	driveStore(t, s, eng, rng, 20)

	snaps, _, err := s.genFiles("snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots on disk, want a newest and an older one", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, withVersion(data, 2), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, info, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.SkippedSnapshots) != 1 || !strings.Contains(info.SkippedSnapshots[0], "version 2") {
		t.Errorf("skipped snapshots = %v, want exactly the v2 file, naming its version", info.SkippedSnapshots)
	}
	if info.SnapshotPath != snaps[len(snaps)-2] {
		t.Errorf("recovered from %s, want the older v3 file %s", info.SnapshotPath, snaps[len(snaps)-2])
	}
	assertEquivalent(t, eng, recovered)
	if _, err := os.Stat(newest); err != nil {
		t.Errorf("v2 snapshot not left in place: %v", err)
	}
	if _, err := os.Stat(newest + ".corrupt"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("v2 snapshot quarantined as corrupt: %v", err)
	}
}

// TestStoreRetentionKeepsReadableFallback: a full snapshot Recover
// refused for its version is not one of the two fulls retention keeps.
// From a v3 gen-0 file and a v2-headered gen-27 file, recovery falls
// back to gen 0; the next snapshot must leave gen 0, the WAL from gen 0
// and the refused file on disk, so a later recovery with the newest
// file damaged still reaches the acknowledged state.
func TestStoreRetentionKeepsReadableFallback(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	rng := rand.New(rand.NewSource(41))
	cards := eng.Cards()
	for eng.Generation() < 27 {
		if err := s.Append(randomBatch(rng, cards, 1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	// A full image at gen 27 in the v2 layout; the WAL still runs from
	// gen 0, so recovery can replay past it from the older file.
	v2, _, err := writeSnapshotFile(dir, eng.CaptureState().State())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2, withVersion(data, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir)
	eng, info, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotGeneration != 0 || len(info.SkippedSnapshots) != 1 {
		t.Fatalf("recovered gen %d skipping %v, want gen 0 past the v2 file", info.SnapshotGeneration, info.SkippedSnapshots)
	}
	driveStore(t, s, eng, rng, 20)
	res, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta || res.Generation <= 27 {
		t.Fatalf("snapshot = %+v, want a full image past gen 27", res)
	}
	for _, name := range []string{snapshotName(0), walName(0), snapshotName(27)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s pruned by retention: %v", name, err)
		}
	}
	driveStore(t, s, eng, rng, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the newest full: recovery quarantines it, refuses the v2
	// file again, and replays the kept WAL from gen 0.
	newest, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	newest[len(newest)/2] ^= 0x10
	if err := os.WriteFile(res.Path, newest, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotGeneration != 0 {
		t.Errorf("recovered from gen %d, want the gen-0 fallback", info.SnapshotGeneration)
	}
	assertEquivalent(t, eng, recovered)
}

// TestStoreFailsStopOnWALError: once a WAL write fails after the
// engine applied the mutation, the store must refuse further
// mutations (a generation gap in the log would poison every future
// recovery) until a snapshot re-establishes a durable root.
func TestStoreFailsStopOnWALError(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the WAL: close its file handle out from under it so
	// the next record write fails after the engine mutation applied.
	s.wal.f.Close()
	err := s.Append([][]uint8{{1, 1, 1}})
	if err == nil {
		t.Fatal("append with a dead WAL handle succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("WAL failure err = %v, want ErrUnavailable (it is the store's fault, not the client's)", err)
	}
	// The engine applied the mutation; the store is now fail-stop.
	if got, _ := eng.Coverage(pattern.FromValues([]uint8{1, 1, 1})); got != 1 {
		t.Fatalf("engine did not apply the unlogged mutation: cov = %d", got)
	}
	if err := s.Append([][]uint8{{1, 2, 2}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("broken-store append err = %v, want ErrUnavailable", err)
	}
	if err := s.SetWindow(5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("broken-store window err = %v, want ErrUnavailable", err)
	}

	// A successful snapshot captures the full in-memory state (gap
	// included) and re-enables the store.
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]uint8{{1, 2, 2}}); err != nil {
		t.Fatalf("store still broken after a successful snapshot: %v", err)
	}

	// Recovery sees a consistent history: snapshot + post-snapshot
	// records, no generation gap.
	s2 := openStore(t, dir)
	recovered, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eng, recovered)
}

// TestStoreTornTailRecovery crashes mid-record: the durable prefix
// recovers, the torn suffix is dropped, and appending continues
// cleanly after the truncation.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	for i := 0; i < 5; i++ {
		if err := s.Append([][]uint8{{1, 1, uint8(i % 4)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the tail: chop 3 bytes off the segment, losing the last
	// record's end.
	wals, _, err := s.genFiles("wal-", ".wal")
	if err != nil {
		t.Fatal(err)
	}
	seg := wals[len(wals)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	recovered, info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTailDropped {
		t.Error("torn tail not reported")
	}
	if info.Replayed != 4 {
		t.Errorf("replayed %d records, want 4 (the 5th was torn)", info.Replayed)
	}
	if got := recovered.Rows(); got != 4 {
		t.Errorf("recovered %d rows, want 4", got)
	}

	// The truncated segment accepts new records and survives another
	// restart.
	if err := s2.Append([][]uint8{{0, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir)
	recovered2, _, err := s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, recovered, recovered2)
}

// TestStoreRandomizedInterleavings is the satellite property test: a
// shadow engine lives through the whole mutation history while the
// durable engine is snapshotted, crashed and restored at random
// points. After every restart and at the end, the two must agree on
// all coverage and MUP queries.
func TestStoreRandomizedInterleavings(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 13))
			dir := t.TempDir()
			shadow := engine.New(testSchema(), engine.Options{})
			s, durable := attachFresh(t, dir)
			cards := shadow.Cards()

			for i := 0; i < 120; i++ {
				switch r := rng.Intn(20); {
				case r < 10:
					rows := randomBatch(rng, cards, 1+rng.Intn(5))
					if err := shadow.Append(rows); err != nil {
						t.Fatal(err)
					}
					if err := s.Append(rows); err != nil {
						t.Fatal(err)
					}
				case r < 13:
					rows := deletableRows(rng, shadow, 1+rng.Intn(3))
					if len(rows) == 0 {
						continue
					}
					if err := shadow.Delete(rows); err != nil {
						t.Fatal(err)
					}
					if err := s.Delete(rows); err != nil {
						t.Fatal(err)
					}
				case r < 15:
					n := 0
					if rng.Intn(3) > 0 {
						n = 5 + rng.Intn(30)
					}
					shadow.SetWindow(n)
					if err := s.SetWindow(n); err != nil {
						t.Fatal(err)
					}
				case r < 17: // queries populate caches on both sides
					tau := int64(1 + rng.Intn(3))
					if _, err := shadow.MUPs(mup.Options{Threshold: tau}); err != nil {
						t.Fatal(err)
					}
					if _, err := durable.MUPs(mup.Options{Threshold: tau}); err != nil {
						t.Fatal(err)
					}
				case r < 18:
					if _, err := s.Snapshot(); err != nil {
						t.Fatal(err)
					}
				default: // crash: abandon the store, recover from disk
					s2 := openStore(t, dir)
					recovered, _, err := s2.Recover()
					if err != nil {
						t.Fatal(err)
					}
					assertEquivalent(t, shadow, recovered)
					s, durable = s2, recovered
				}
			}
			assertEquivalent(t, shadow, durable)

			s2 := openStore(t, dir)
			recovered, _, err := s2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, shadow, recovered)
		})
	}
}

// TestStoreSyncWAL runs the mutation path with per-record fsync on:
// the durability guarantee costs a Sync per batch but must not change
// recovery semantics.
func TestStoreSyncWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(testSchema(), engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]uint8{{0, 0, 0}, {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWindow(10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, eng, recovered)
}

// TestRecoverEvictingTailSnapshotsIdentically recovers one data
// directory twice from a WAL tail whose appends evict through a sliding
// window. Replay must rebuild the same removed log both times, so the
// next full snapshot is byte-identical.
func TestRecoverEvictingTailSnapshotsIdentically(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	var all [][]uint8
	for a := uint8(0); a < 2; a++ {
		for b := uint8(0); b < 3; b++ {
			for c := uint8(0); c < 4; c++ {
				all = append(all, []uint8{a, b, c})
			}
		}
	}
	if err := s.SetWindow(len(all)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := s.Append(all); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var images [2][]byte
	for i := range images {
		copyDir := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(copyDir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s2 := openStore(t, copyDir)
		if _, _, err := s2.Recover(); err != nil {
			t.Fatal(err)
		}
		res, err := s2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped || res.Delta {
			t.Fatalf("recovery %d: snapshot %+v, want a full image", i, res)
		}
		if images[i], err = os.ReadFile(res.Path); err != nil {
			t.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("two recoveries of one data directory wrote different snapshot bytes")
	}
}

// TestStoreAccessors covers the trivial read surface the server leans
// on.
func TestStoreAccessors(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	if s.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if s.Engine() != eng {
		t.Error("Engine() does not return the attached engine")
	}
	if s.Dirty() {
		t.Error("freshly attached store reports dirty")
	}
	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if !s.Dirty() {
		t.Error("store not dirty after a mutation")
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if s.Dirty() {
		t.Error("store dirty right after a snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// TestStoreWALDimensionGuard: appending a row of the wrong width must
// fail at the engine before anything reaches the log.
func TestStoreWALDimensionGuard(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	if err := s.Append([][]uint8{{1, 1}}); err == nil {
		t.Fatal("short row accepted")
	}
	st := s.Stats()
	if st.WALRecords != 0 {
		t.Errorf("rejected batch reached the WAL: %d records", st.WALRecords)
	}
}

// TestStoreStats sanity-checks the persistence counters the server
// surfaces on /stats.
func TestStoreStats(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	if err := s.Append([][]uint8{{0, 0, 0}, {1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWindow(10); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Snapshots != 1 || st.WALRecords != 2 || st.WALBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Dir != dir {
		t.Errorf("dir = %q, want %q", st.Dir, dir)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Snapshots != 2 || st.LastSnapshotGeneration != eng.Generation() || st.LastSnapshotBytes == 0 {
		t.Errorf("post-snapshot stats = %+v", st)
	}
	if st.WALRecords != 0 {
		t.Errorf("rotation did not reset the segment record count: %+v", st)
	}

	s2 := openStore(t, dir)
	if _, _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.RecoveredSnapshotGeneration != eng.Generation() || st2.ReplayedRecords != 0 {
		t.Errorf("recovery stats = %+v", st2)
	}
}

// TestSnapshotNameOrdering pins the 16-hex-digit naming: generation
// order must equal lexicographic order for the directory scan.
func TestSnapshotNameOrdering(t *testing.T) {
	if snapshotName(9) >= snapshotName(10) || walName(255) >= walName(256) {
		t.Error("file names do not sort by generation")
	}
	if filepath.Base(snapshotName(1)) != "snap-0000000000000001.snap" {
		t.Errorf("unexpected name %q", snapshotName(1))
	}
}

// TestPatternKeyWidth guards an encoding assumption: combination keys
// and MUP patterns are exactly dim bytes.
func TestPatternKeyWidth(t *testing.T) {
	p := pattern.Pattern([]uint8{1, pattern.Wildcard, 2})
	if len(p) != 3 {
		t.Fatal("pattern length is not the schema dimension")
	}
}
