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
// tables are part of both.
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
