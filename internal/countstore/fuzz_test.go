package countstore

import (
	"testing"

	"coverage/internal/pattern"
)

// FuzzStoreEquivalence interprets the fuzz input as an op tape run
// against Flat over a 12-bit key space; any divergence from the plain
// map oracle is a bug in the table.
func FuzzStoreEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x81, 3, 4, 0xFF, 0, 0, 7})
	f.Add([]byte{0x20, 0x20, 0x40, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, tape []byte) {
		flat, ref := NewFlat(0), refMap{}
		for pos := 0; pos+3 <= len(tape); pos += 3 {
			op, lo, hi := tape[pos], tape[pos+1], tape[pos+2]
			k := pattern.PackedKey{uint64(lo) | uint64(hi&0xF)<<8, 0}
			n := int64(int8(hi)) // signed payload reusing hi
			switch op % 5 {
			case 0, 1, 2:
				if got, want := flat.Add(k, n), ref.add(k, n); got != want {
					t.Fatalf("Add(%v,%d) = %d, oracle %d", k, n, got, want)
				}
			case 3:
				flat.Set(k, n)
				ref.set(k, n)
			case 4:
				if got, want := flat.Get(k), ref[k]; got != want {
					t.Fatalf("Get(%v) = %d, oracle %d", k, got, want)
				}
			}
			if flat.Len() != len(ref) {
				t.Fatalf("Len = %d, oracle %d", flat.Len(), len(ref))
			}
		}
		checkContents(t, flat, ref)
	})
}
