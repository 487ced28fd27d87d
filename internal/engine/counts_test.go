package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestStatsStoreFields pins the store observability surface: the table
// name follows the key representation, occupancy stays a ratio in
// (0,1] for the slotted table (0 for the map), resident bytes grow
// with the live set, and the per-shard bytes sum to exactly the
// ResidentBytes the registry evicts on — with a pending delta, so the
// delta-position tables are part of both.
func TestStatsStoreFields(t *testing.T) {
	for _, tc := range []struct {
		cards []int
		store string
	}{
		{[]int{4, 4, 4}, "flat"},
		{wideCards(), "map"},
	} {
		e := NewSharded(testSchema(t, tc.cards), 2, Options{})
		rng := rand.New(rand.NewSource(7))
		if err := e.Append(randomRows(rng, tc.cards, 200)); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.DeltaDistinct == 0 {
			t.Fatal("precondition: the append should leave a pending delta")
		}
		var sum int64
		for i, sh := range st.Shards {
			if sh.Store != tc.store {
				t.Fatalf("shard %d store = %q, want %q", i, sh.Store, tc.store)
			}
			if tc.store == "flat" && (sh.StoreOccupancy <= 0 || sh.StoreOccupancy > 1) {
				t.Errorf("shard %d occupancy = %v, want in (0,1]", i, sh.StoreOccupancy)
			}
			if tc.store == "map" && sh.StoreOccupancy != 0 {
				t.Errorf("shard %d occupancy = %v, want 0 for the slotless map", i, sh.StoreOccupancy)
			}
			if sh.StoreBytes <= 0 {
				t.Errorf("shard %d store bytes = %d, want > 0", i, sh.StoreBytes)
			}
			sum += sh.StoreBytes
		}
		if rb := e.ResidentBytes(); sum != rb {
			t.Errorf("%s: shard store bytes sum to %d, ResidentBytes() = %d", tc.store, sum, rb)
		}
	}
}

// TestRestoreKeepsMutationLogKeys is the regression test for a restore
// that imported the removed/added logs through the bit-compact codec
// and then swapped the engine to the byte-aligned one, so the logs
// came back as garbage keys.
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
}
