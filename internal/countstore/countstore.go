// Package countstore provides the packed-key count tables behind the
// engine's combo→multiplicity bookkeeping: signed 64-bit counts keyed
// by two-word pattern.PackedKeys.
//
//   - Flat is the mutable table under every shard core, batch
//     accumulator and tombstone set: open-addressed linear probing with
//     inline key+count slots, tombstone-free deletion via backward
//     shift, and growth by doubling in place: the insert that crosses
//     3/4 load copies the whole table (see Flat.grow for its cost).
//   - Probe is the immutable table inside the base coverage oracles:
//     built once, then probed by the deepest level of every MUP search.
//
// A count of zero is never stored: Flat's Add and Set delete the key
// when its count reaches zero, so Len is always the number of live
// combos.
package countstore

import "coverage/internal/pattern"

// Mem is a table's self-reported footprint.
type Mem struct {
	// Live is the number of stored keys (== Len).
	Live int
	// Slots is the allocated slot capacity.
	Slots int
	// Bytes estimates resident bytes of the table's backing arrays.
	Bytes int64
}

// Occupancy is Live/Slots, the fill ratio of the slot array (0 for a
// table with no slots).
func (m Mem) Occupancy() float64 {
	if m.Slots == 0 {
		return 0
	}
	return float64(m.Live) / float64(m.Slots)
}

// hashKey mixes the two key words into a well-distributed 64-bit hash
// (multiply-xor with a splitmix64-style finalizer). Cheap enough to
// recompute during backward-shift deletion instead of storing.
func hashKey(k pattern.PackedKey) uint64 {
	h := k[0]*0x9E3779B97F4A7C15 ^ k[1]*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}
