package countstore

import (
	"math/rand"
	"testing"

	"coverage/internal/pattern"
)

// TestProbeVsMapReference drives Probe through random inserts and
// updates against a plain map and checks Get, Len, Range and forced
// growth all agree.
func TestProbeVsMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Tiny initial size so the defensive grow path runs many times.
	p := NewProbe(0)
	ref := make(map[pattern.PackedKey]int64)
	keys := make([]pattern.PackedKey, 0, 4096)
	for i := 0; i < 20000; i++ {
		var k pattern.PackedKey
		if len(keys) > 0 && rng.Intn(3) == 0 {
			k = keys[rng.Intn(len(keys))] // update an existing key
		} else {
			k = pattern.PackedKey{rng.Uint64(), rng.Uint64()}
		}
		n := int64(1 + rng.Intn(1000))
		if _, seen := ref[k]; !seen {
			keys = append(keys, k)
		}
		p.Set(k, n)
		ref[k] = n
	}
	if p.Len() != len(ref) {
		t.Fatalf("Len() = %d, want %d", p.Len(), len(ref))
	}
	for k, want := range ref {
		if got := p.Get(k); got != want {
			t.Fatalf("Get(%v) = %d, want %d", k, got, want)
		}
	}
	for i := 0; i < 1000; i++ {
		k := pattern.PackedKey{rng.Uint64(), rng.Uint64()}
		if _, seen := ref[k]; seen {
			continue
		}
		if got := p.Get(k); got != 0 {
			t.Fatalf("Get(absent %v) = %d, want 0", k, got)
		}
	}
	ranged := make(map[pattern.PackedKey]int64, len(ref))
	p.Range(func(k pattern.PackedKey, n int64) { ranged[k] = n })
	if len(ranged) != len(ref) {
		t.Fatalf("Range visited %d keys, want %d", len(ranged), len(ref))
	}
	for k, want := range ref {
		if ranged[k] != want {
			t.Fatalf("Range saw %v=%d, want %d", k, ranged[k], want)
		}
	}
}

// TestProbeGetRaw proves the fused raw-byte probe is equivalent to
// packing through the raw codec and calling Get, across every
// raw-packable dimension (each exercises a different byte-load shape).
func TestProbeGetRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= pattern.RawKeyDim; dim++ {
		codec := pattern.NewRawCodec(dim)
		p := NewProbe(256)
		rows := make([][]uint8, 300)
		for i := range rows {
			row := make([]uint8, dim)
			for j := range row {
				row[j] = uint8(rng.Intn(5))
			}
			rows[i] = row
			p.Set(codec.PackedKey(pattern.Pattern(row)), int64(i+1))
		}
		for _, row := range rows {
			want := p.Get(codec.PackedKey(pattern.Pattern(row)))
			if got := p.GetRaw(row); got != want {
				t.Fatalf("dim %d: GetRaw(%v) = %d, want %d", dim, row, got, want)
			}
		}
		// Absent rows (value outside the inserted range) return 0.
		miss := make([]uint8, dim)
		for j := range miss {
			miss[j] = 9
		}
		if got := p.GetRaw(miss); got != 0 {
			t.Fatalf("dim %d: GetRaw(absent) = %d, want 0", dim, got)
		}
	}
}

func TestProbeZeroCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set with zero count did not panic")
		}
	}()
	NewProbe(4).Set(pattern.PackedKey{1, 2}, 0)
}
