package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestStatsStoreFields pins the store observability surface under both
// key layouts (the raw one at 3 attributes, the bit-compact one at 20):
// occupancy stays a ratio in (0,1], resident bytes grow with the live
// set, and the per-shard bytes sum to exactly the ResidentBytes the
// registry evicts on — with a pending delta, so the delta-position
// tables and the delta entry lists are part of both, and a fold that
// clears the delta gives their bytes back. With a window, the window's
// bytes join the sum.
func TestStatsStoreFields(t *testing.T) {
	compact := make([]int, 20)
	for i := range compact {
		compact[i] = 3
	}
	for _, cards := range [][]int{{4, 4, 4}, compact} {
		e := NewSharded(testSchema(t, cards), 2, Options{})
		rng := rand.New(rand.NewSource(7))
		if err := e.Append(randomRows(rng, cards, 200)); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.DeltaDistinct == 0 {
			t.Fatal("precondition: the append should leave a pending delta")
		}
		var sum int64
		for i, sh := range st.Shards {
			if sh.StoreOccupancy <= 0 || sh.StoreOccupancy > 1 {
				t.Errorf("%d attributes: shard %d occupancy = %v, want in (0,1]", len(cards), i, sh.StoreOccupancy)
			}
			if sh.StoreBytes <= 0 {
				t.Errorf("%d attributes: shard %d store bytes = %d, want > 0", len(cards), i, sh.StoreBytes)
			}
			sum += sh.StoreBytes
		}
		if rb := e.ResidentBytes(); sum != rb {
			t.Errorf("%d attributes: shard store bytes sum to %d, ResidentBytes() = %d", len(cards), sum, rb)
		}
		var entries int64
		for i, c := range e.cores {
			want := deltaEntryBytes * int64(len(c.delta))
			entries += want
			if list := st.Shards[i].StoreBytes - c.counts.Mem().Bytes - c.deltaPos.Mem().Bytes; list < want {
				t.Errorf("%d attributes: shard %d counts %d bytes for its %d pending delta entries, want at least %d",
					len(cards), i, list, len(c.delta), want)
			}
		}
		e.Oracle() // the fold clears every pending delta
		if rb := e.ResidentBytes(); rb > sum-entries {
			t.Errorf("%d attributes: ResidentBytes() = %d after the fold, want at most %d less the %d delta entry bytes",
				len(cards), rb, sum, entries)
		}
		if st.WindowBytes != 0 {
			t.Errorf("%d attributes: %d window bytes without a window", len(cards), st.WindowBytes)
		}

		// A window holds one 16-byte key per live row plus the
		// tombstones of deleted ones, and ResidentBytes counts it.
		e.SetWindow(150)
		if err := e.Delete(drawDeletableEngine(rng, e, 10)); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(randomRows(rng, cards, 20)); err != nil {
			t.Fatal(err)
		}
		st = e.Stats()
		if st.Tombstones == 0 {
			t.Fatal("precondition: the delete should leave tombstones")
		}
		if min := 16 * int64(st.Rows+st.Tombstones); st.WindowBytes < min {
			t.Errorf("%d attributes: %d window bytes for %d rows and %d tombstones, want at least %d",
				len(cards), st.WindowBytes, st.Rows, st.Tombstones, min)
		}
		sum = st.WindowBytes
		for _, sh := range st.Shards {
			sum += sh.StoreBytes
		}
		if rb := e.ResidentBytes(); sum != rb {
			t.Errorf("%d attributes: shard store bytes plus window bytes sum to %d, ResidentBytes() = %d", len(cards), sum, rb)
		}
	}
}

// TestRestoreKeepsMutationLogKeys is the regression test for a restore
// that imported the removed/added logs through the bit-compact codec
// and then swapped the engine to the byte-aligned one, so the logs
// came back as garbage keys. A second case restores a windowed state
// past the raw layout's 16 attributes.
func TestRestoreKeepsMutationLogKeys(t *testing.T) {
	cards := []int{64, 64, 64, 4}
	e := NewSharded(testSchema(t, cards), 2, Options{})
	rows := randomRows(rand.New(rand.NewSource(1)), cards, 50)
	if err := e.Append(rows); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(rows[:5]); err != nil {
		t.Fatal(err)
	}
	st := e.ExportState()
	if len(st.Removed.Recs) == 0 || len(st.Added.Recs) == 0 {
		t.Fatal("precondition: both mutation logs should be populated")
	}
	restored, err := NewFromState(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := restored.ExportState()
	if !reflect.DeepEqual(got.Removed, st.Removed) || !reflect.DeepEqual(got.Added, st.Added) {
		t.Fatal("mutation logs changed across ExportState → NewFromState → ExportState")
	}

	// A windowed state in the bit-compact layout, with tombstones,
	// restores whole at 1 and at 3 shards: window log and pending
	// deletes included, everything but the shard topology is equal.
	wide := make([]int, 20)
	for i := range wide {
		wide[i] = 3
	}
	e = NewSharded(testSchema(t, wide), 2, Options{})
	rng := rand.New(rand.NewSource(2))
	if err := e.Append(randomRows(rng, wide, 120)); err != nil {
		t.Fatal(err)
	}
	e.SetWindow(100)
	if err := e.Delete(drawDeletableEngine(rng, e, 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Append(randomRows(rng, wide, 30)); err != nil {
		t.Fatal(err)
	}
	st = e.ExportState()
	if st.Tombstones == 0 || len(st.PendingDeletes) == 0 || len(st.WindowLog) == 0 {
		t.Fatal("precondition: the window should hold rows and tombstones")
	}
	for _, shards := range []int{1, 3} {
		restored, err := NewFromState(st, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		g := restored.ExportState()
		if len(g.Counts) != shards {
			t.Fatalf("restored at %d shards, exported %d count lists", shards, len(g.Counts))
		}
		assertStatesEqual(t, g, st)
		if t.Failed() {
			t.Fatalf("%d shards: the windowed 20-attribute state changed across a restore", shards)
		}
	}
}
