package countstore

import "coverage/internal/pattern"

// flatSlot is one inline key+count cell: 24 bytes, no pointers, so a
// probe touches one cache line and the GC never scans the table. A
// count of zero marks the slot empty (counts are never stored as zero —
// Add/Set delete at zero), so no separate occupancy metadata is needed
// and deletion leaves no tombstones.
type flatSlot struct {
	key pattern.PackedKey
	n   int64
}

const (
	flatMinCap = 16
	// flatSlotBytes is unsafe.Sizeof(flatSlot{}) spelled as a
	// constant: two key words plus the count.
	flatSlotBytes = 24
)

// Flat is an open-addressed, linear-probing count table keyed directly
// on PackedKey. Capacity is a power of two that doubles in place when an
// insert would cross 3/4 load; deletion backward-shifts the probe
// cluster (no tombstones, so load never decays).
type Flat struct {
	slots []flatSlot
	mask  uint64
	live  int
	grows int64
}

// NewFlat builds a flat table pre-sized for about hint live keys.
func NewFlat(hint int) *Flat {
	f := &Flat{}
	f.slots = make([]flatSlot, capFor(hint))
	f.mask = uint64(len(f.slots) - 1)
	return f
}

// capFor is the smallest power-of-two capacity holding n keys under
// 3/4 load.
func capFor(n int) int {
	c := flatMinCap
	for n > c*3/4 {
		c <<= 1
	}
	return c
}

// findIn probes tbl for k: (index of k's slot, true) when present, or
// (index of the empty slot that ended the probe, false). tbl always has
// at least one empty slot (load < 1), so the walk terminates.
func findIn(tbl []flatSlot, mask uint64, k pattern.PackedKey) (uint64, bool) {
	i := hashKey(k) & mask
	for {
		s := &tbl[i]
		if s.n == 0 {
			return i, false
		}
		if s.key == k {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// removeAt empties slot i and backward-shifts the rest of its probe
// cluster: each following entry moves down iff its home slot is at or
// before the hole in probe order, the standard linear-probing delete
// that keeps every remaining key reachable without tombstones.
func removeAt(tbl []flatSlot, mask, i uint64) {
	for {
		j := (i + 1) & mask
		for {
			s := &tbl[j]
			if s.n == 0 {
				tbl[i] = flatSlot{}
				return
			}
			home := hashKey(s.key) & mask
			if (j-home)&mask >= (j-i)&mask {
				tbl[i] = *s
				i = j
				break
			}
			j = (j + 1) & mask
		}
	}
}

func (f *Flat) Get(k pattern.PackedKey) int64 {
	if i, ok := findIn(f.slots, f.mask, k); ok {
		return f.slots[i].n
	}
	return 0
}

func (f *Flat) Add(k pattern.PackedKey, n int64) int64 {
	if i, ok := findIn(f.slots, f.mask, k); ok {
		m := f.slots[i].n + n
		if m == 0 {
			removeAt(f.slots, f.mask, i)
			f.live--
			return 0
		}
		f.slots[i].n = m
		return m
	}
	if n != 0 {
		f.insert(k, n)
	}
	return n
}

func (f *Flat) Set(k pattern.PackedKey, n int64) {
	if i, ok := findIn(f.slots, f.mask, k); ok {
		if n == 0 {
			removeAt(f.slots, f.mask, i)
			f.live--
			return
		}
		f.slots[i].n = n
		return
	}
	if n != 0 {
		f.insert(k, n)
	}
}

// insert places a key known to be absent.
func (f *Flat) insert(k pattern.PackedKey, n int64) {
	if (f.live+1)*4 > len(f.slots)*3 {
		f.grow()
	}
	i, _ := findIn(f.slots, f.mask, k)
	f.slots[i] = flatSlot{key: k, n: n}
	f.live++
}

// grow doubles the slot array and reinserts every live entry, all in
// the one insert that crosses 3/4 load. That insert pays for the whole
// copy: on a 2-core Xeon about 1.5 ms at 26 000 keys (the largest
// per-shard table the benchmark builds), 3.4 ms at 50 000 and 6.6 ms
// at 100 000.
func (f *Flat) grow() {
	old := f.slots
	f.slots = make([]flatSlot, 2*len(old))
	f.mask = uint64(len(f.slots) - 1)
	for _, s := range old {
		if s.n != 0 {
			i, _ := findIn(f.slots, f.mask, s.key)
			f.slots[i] = s
		}
	}
	f.grows++
}

func (f *Flat) Len() int { return f.live }

func (f *Flat) Range(fn func(k pattern.PackedKey, n int64)) {
	for i := range f.slots {
		if f.slots[i].n != 0 {
			fn(f.slots[i].key, f.slots[i].n)
		}
	}
}

func (f *Flat) Mem() Mem {
	return Mem{
		Live:  f.Len(),
		Slots: len(f.slots),
		Bytes: int64(len(f.slots)) * flatSlotBytes,
	}
}

// Grows reports how many times the table has doubled.
func (f *Flat) Grows() int64 { return f.grows }

// Cap is the current slot capacity.
func (f *Flat) Cap() int { return len(f.slots) }
