package countstore

import (
	"math/rand"
	"testing"

	"coverage/internal/pattern"
)

func key(a, b uint64) pattern.PackedKey { return pattern.PackedKey{a, b} }

// checkReachable asserts the core open-addressing invariant: every
// live entry in the primary table is findable by probing from its home
// slot, i.e. the probe path home..slot has no empty holes. Backward-
// shift deletion must preserve this without tombstones.
func checkReachable(t *testing.T, f *Flat) {
	t.Helper()
	for i := range f.slots {
		if f.slots[i].n == 0 {
			continue
		}
		k := f.slots[i].key
		home := hashKey(k) & f.mask
		for j := home; j != uint64(i); j = (j + 1) & f.mask {
			if f.slots[j].n == 0 {
				t.Fatalf("key %v at slot %d unreachable: hole at %d on probe path from home %d", k, i, j, home)
			}
		}
		if got := f.Get(k); got != f.slots[i].n {
			t.Fatalf("Get(%v) = %d, slot holds %d", k, got, f.slots[i].n)
		}
	}
}

func TestFlatBackwardShiftDeletion(t *testing.T) {
	// Drive a small table through heavy insert/delete churn and check
	// after every delete that no key became unreachable and no
	// tombstone-like dead slot lingers (empty slots carry zero keys).
	f := NewFlat(0)
	rng := rand.New(rand.NewSource(7))
	live := map[pattern.PackedKey]int64{}
	keys := make([]pattern.PackedKey, 0, 64)
	for step := 0; step < 4000; step++ {
		if len(keys) == 0 || rng.Intn(3) > 0 {
			k := key(uint64(rng.Intn(97)), uint64(rng.Intn(3)))
			n := int64(rng.Intn(5) + 1)
			f.Add(k, n)
			if live[k]+n == 0 {
				delete(live, k)
			} else {
				live[k] += n
			}
			keys = append(keys, k)
		} else {
			k := keys[rng.Intn(len(keys))]
			if c := live[k]; c != 0 {
				f.Add(k, -c) // drive to zero: full delete
				delete(live, k)
				checkReachable(t, f)
			}
		}
		if f.Len() != len(live) {
			t.Fatalf("step %d: Len=%d want %d", step, f.Len(), len(live))
		}
	}
	for k, n := range live {
		if got := f.Get(k); got != n {
			t.Fatalf("Get(%v)=%d want %d", k, got, n)
		}
	}
	// Every empty slot must be truly empty (no residual keys).
	for i := range f.slots {
		if f.slots[i].n == 0 && f.slots[i].key != (pattern.PackedKey{}) {
			t.Fatalf("slot %d empty but key %v not cleared", i, f.slots[i].key)
		}
	}
}

func TestFlatBackwardShiftWrappedCluster(t *testing.T) {
	// Force a probe cluster that wraps around the end of the array,
	// then delete the entry sitting before the wrap point: the shift
	// must follow the cluster across the boundary.
	f := NewFlat(0)
	cap := uint64(len(f.slots))
	// Find keys hashing to the last slot so their cluster wraps.
	var ks []pattern.PackedKey
	for a := uint64(0); len(ks) < 3; a++ {
		k := key(a, 0)
		if hashKey(k)&f.mask == cap-1 {
			ks = append(ks, k)
		}
	}
	for i, k := range ks {
		f.Add(k, int64(i+1))
	}
	// ks[0] sits at cap-1; ks[1], ks[2] wrapped to 0, 1.
	f.Add(ks[0], -1) // delete → ks[1] must shift into cap-1
	checkReachable(t, f)
	if got := f.Get(ks[1]); got != 2 {
		t.Fatalf("wrapped key lost after delete: Get=%d want 2", got)
	}
	if got := f.Get(ks[2]); got != 3 {
		t.Fatalf("wrapped key lost after delete: Get=%d want 3", got)
	}
}

func TestFlatIncrementalRehash(t *testing.T) {
	// Growth doubles the table in place: across several chained
	// doublings, with deletes between them, every key keeps its count
	// and Len and Range agree with the oracle right after each one.
	f := NewFlat(0)
	want := refMap{}
	n := uint64(0)
	for g := int64(1); g <= 6; g++ {
		before := f.Cap()
		for f.Grows() < g {
			k := key(n, 1)
			f.Add(k, int64(n)+1)
			want[k] = int64(n) + 1
			n++
		}
		if f.Cap() != 2*before {
			t.Fatalf("growth %d: Cap %d -> %d, want a doubling", g, before, f.Cap())
		}
		checkReachable(t, f)
		checkContents(t, f, want)
		// Delete every third key: backward shifts in the grown table.
		for i := uint64(0); i < n; i += 3 {
			k := key(i, 1)
			if c := want[k]; c != 0 {
				f.Add(k, -c)
				delete(want, k)
			}
		}
		checkReachable(t, f)
		checkContents(t, f, want)
	}
}

func TestFlatReserveAvoidsMidBatchGrowth(t *testing.T) {
	// Capacity is reserved at construction: a table born with the
	// batch's size as its hint never grows during the batch.
	f := NewFlat(10_000)
	grows := f.Grows()
	for i := uint64(0); i < 10_000; i++ {
		f.Add(key(i, 3), 1)
	}
	if f.Grows() != grows {
		t.Fatalf("batch of reserved size still grew table: %d growths during batch", f.Grows()-grows)
	}
}

func TestFlatGrowMidDrainKeepsAllEntries(t *testing.T) {
	// Growth triggered from Set and from Add on a table whose clusters
	// have been reshaped by deletes keeps every entry: Set and Add
	// alternate as the inserting op, earlier keys are deleted or
	// overwritten in between, and the contents are checked after each
	// doubling.
	f := NewFlat(0)
	want := refMap{}
	rng := rand.New(rand.NewSource(9))
	for i := uint64(0); f.Grows() < 8; i++ {
		k := key(i, 9)
		grows := f.Grows()
		if i%2 == 0 {
			f.Set(k, int64(i)+1)
		} else {
			f.Add(k, int64(i)+1)
		}
		want[k] = int64(i) + 1
		if rng.Intn(4) == 0 {
			old := key(uint64(rng.Int63n(int64(i)+1)), 9)
			if rng.Intn(2) == 0 {
				f.Set(old, 0)
				delete(want, old)
			} else if c := want[old]; c != 0 {
				f.Set(old, -c)
				want[old] = -c
			}
		}
		if f.Grows() != grows {
			checkReachable(t, f)
			checkContents(t, f, want)
		}
	}
}

func TestFlatSet(t *testing.T) {
	f := NewFlat(4)
	f.Set(key(1, 0), 5)
	f.Set(key(2, 0), -3)
	f.Set(key(1, 0), 7) // overwrite
	f.Set(key(2, 0), 0) // delete
	if got := f.Get(key(1, 0)); got != 7 {
		t.Fatalf("Get=%d want 7", got)
	}
	if got, l := f.Get(key(2, 0)), f.Len(); got != 0 || l != 1 {
		t.Fatalf("after Set 0: Get=%d Len=%d", got, l)
	}
}
