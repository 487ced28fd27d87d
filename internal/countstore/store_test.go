package countstore

import (
	"math/rand"
	"testing"

	"coverage/internal/pattern"
)

// refMap is the oracle Flat is checked against: a plain map under the
// same never-store-zero contract.
type refMap map[pattern.PackedKey]int64

func (m refMap) add(k pattern.PackedKey, n int64) int64 {
	c := m[k] + n
	m.set(k, c)
	return c
}

func (m refMap) set(k pattern.PackedKey, n int64) {
	if n == 0 {
		delete(m, k)
		return
	}
	m[k] = n
}

// checkContents compares Flat's full Range contents and self-reported
// footprint against the oracle.
func checkContents(t *testing.T, f *Flat, want refMap) {
	t.Helper()
	got := map[pattern.PackedKey]int64{}
	f.Range(func(k pattern.PackedKey, n int64) {
		if n == 0 {
			t.Fatalf("Range yielded zero count for %v", k)
		}
		got[k] = n
	})
	if len(got) != len(want) {
		t.Fatalf("Range yields %d keys, oracle holds %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("flat[%v]=%d want %d", k, got[k], n)
		}
	}
	if m := f.Mem(); m.Live != len(want) {
		t.Fatalf("Mem.Live=%d want %d", m.Live, len(want))
	}
}

// TestStoreEquivalenceSchedule drives Flat through a randomized
// schedule of signed adds, absolute sets and deletes-to-zero,
// comparing Get/Add returns/Len after every step and the
// full Range contents at the end against the map oracle. The key set is
// wide enough that each seed crosses several doublings with
// backward-shift deletes between them.
func TestStoreEquivalenceSchedule(t *testing.T) {
	const keyBits = 16
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat, ref := NewFlat(0), refMap{}
		keys := make([]pattern.PackedKey, 2000)
		for i := range keys {
			keys[i] = pattern.PackedKey{uint64(rng.Intn(1 << keyBits)), 0}
		}
		for step := 0; step < 20000; step++ {
			k := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(20); {
			case op < 10: // signed add
				n := int64(rng.Intn(9) - 4)
				if got, want := flat.Add(k, n), ref.add(k, n); got != want {
					t.Fatalf("seed %d step %d: Add(%v,%d) = %d, oracle %d", seed, step, k, n, got, want)
				}
			case op < 13: // absolute set
				n := int64(rng.Intn(5) - 2)
				flat.Set(k, n)
				ref.set(k, n)
			case op < 15: // delete to zero
				c := ref[k]
				flat.Add(k, -c)
				ref.add(k, -c)
			default: // read
				if got, want := flat.Get(k), ref[k]; got != want {
					t.Fatalf("seed %d step %d: Get(%v) = %d, oracle %d", seed, step, k, got, want)
				}
			}
			if flat.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, oracle %d", seed, step, flat.Len(), len(ref))
			}
		}
		checkContents(t, flat, ref)
		if flat.Grows() < 4 {
			t.Fatalf("seed %d: only %d doublings; the schedule should cross several", seed, flat.Grows())
		}
	}
}
