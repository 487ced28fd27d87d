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
	// migrateBudget bounds how many old-table slots one mutating op
	// drains during an incremental rehash. At load factor <= 3/4 and a
	// doubled new table, every op migrates more slots than it can
	// insert, so the old table is guaranteed empty well before the new
	// one needs to grow again — while keeping the per-op stall to a
	// few cache lines instead of a full-table copy.
	migrateBudget = 32
)

// Flat is an open-addressed, linear-probing count table keyed directly
// on PackedKey. Capacity is a power of two grown at 3/4 load; deletion
// backward-shifts the probe cluster (no tombstones, so load never
// decays); growth is incremental — the previous slot array is kept and
// drained a few slots per mutating operation, so a resize costs each op
// O(migrateBudget) instead of stalling one op for the whole copy.
type Flat struct {
	slots []flatSlot
	mask  uint64
	live  int // live entries in slots

	// In-progress incremental rehash: old holds the pre-growth array,
	// drained cluster-by-cluster starting after oldScan's first empty
	// slot so backward shifts never move an entry behind the scan.
	old     []flatSlot
	oldMask uint64
	oldLive int
	oldScan uint64 // slots of old examined so far
	oldHome uint64 // scan origin: an empty slot of old

	// drain, when above migrateBudget, is a temporarily raised per-op
	// drain budget set by ExpectInserts so an in-progress rehash
	// retires within an announced batch. Reset when the old array
	// empties.
	drain int

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
	if f.old != nil {
		if i, ok := findIn(f.old, f.oldMask, k); ok {
			return f.old[i].n
		}
	}
	return 0
}

func (f *Flat) Add(k pattern.PackedKey, n int64) int64 {
	f.migrate(f.drainBudget())
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
	if f.old != nil {
		if i, ok := findIn(f.old, f.oldMask, k); ok {
			m := f.old[i].n + n
			removeAt(f.old, f.oldMask, i)
			f.oldLive--
			if f.oldLive == 0 {
				f.old = nil
			}
			if m != 0 {
				f.insert(k, m)
			}
			return m
		}
	}
	if n != 0 {
		f.insert(k, n)
	}
	return n
}

func (f *Flat) Set(k pattern.PackedKey, n int64) {
	f.migrate(f.drainBudget())
	if i, ok := findIn(f.slots, f.mask, k); ok {
		if n == 0 {
			removeAt(f.slots, f.mask, i)
			f.live--
			return
		}
		f.slots[i].n = n
		return
	}
	if f.old != nil {
		if i, ok := findIn(f.old, f.oldMask, k); ok {
			removeAt(f.old, f.oldMask, i)
			f.oldLive--
			if f.oldLive == 0 {
				f.old = nil
			}
			if n != 0 {
				f.insert(k, n)
			}
			return
		}
	}
	if n != 0 {
		f.insert(k, n)
	}
}

// insert places a key known to be absent from both tables.
func (f *Flat) insert(k pattern.PackedKey, n int64) {
	if (f.live+f.oldLive+1)*4 > len(f.slots)*3 {
		f.grow(f.live + f.oldLive + 1)
	}
	i, _ := findIn(f.slots, f.mask, k)
	f.slots[i] = flatSlot{key: k, n: n}
	f.live++
}

// grow starts an incremental rehash into a table sized for want keys at
// half load. Any previous rehash is drained to completion first —
// fully, not on the per-op budget: reassigning old below would
// silently drop whatever entries remain in it. One migrate pass over
// the old table costs at most one step per slot scanned plus one per
// live entry removed, so len(old)+oldLive covers a full drain; the
// loop guards the bound rather than assuming it.
func (f *Flat) grow(want int) {
	for f.old != nil {
		f.migrate(len(f.old) + f.oldLive)
	}
	f.old, f.oldMask, f.oldLive = f.slots, f.mask, f.live
	f.oldScan = 0
	f.oldHome = emptySlotIn(f.old, f.oldMask)
	c := capFor(want * 2)
	if c <= len(f.old) {
		c = len(f.old) * 2
	}
	f.slots = make([]flatSlot, c)
	f.mask = uint64(c - 1)
	f.live = 0
	f.grows++
}

// emptySlotIn returns the index of some empty slot (one always exists
// at load < 1). Starting the drain scan just past an empty slot means
// no probe cluster wraps across the scan origin, so backward shifts
// during draining only ever move entries into positions the scan has
// not passed yet — nothing migrates twice or gets stranded.
func emptySlotIn(tbl []flatSlot, mask uint64) uint64 {
	for i := uint64(0); ; i = (i + 1) & mask {
		if tbl[i].n == 0 {
			return i
		}
	}
}

// migrate drains up to budget slots of the old table into the new one.
func (f *Flat) migrate(budget int) {
	if f.old == nil {
		return
	}
	for budget > 0 && f.oldLive > 0 {
		i := (f.oldHome + 1 + f.oldScan) & f.oldMask
		s := f.old[i]
		if s.n == 0 {
			f.oldScan++
			budget--
			continue
		}
		removeAt(f.old, f.oldMask, i)
		f.oldLive--
		// Insert directly: capacity for all old entries was reserved
		// at grow time, and routing through insert() could recurse
		// into grow.
		j, _ := findIn(f.slots, f.mask, s.key)
		f.slots[j] = s
		f.live++
		budget--
	}
	if f.oldLive == 0 {
		f.old = nil
		f.drain = 0
	}
}

// drainBudget is the per-op incremental-rehash budget: the default, or
// the raised rate ExpectInserts computed for an announced batch.
func (f *Flat) drainBudget() int {
	if f.drain > migrateBudget {
		return f.drain
	}
	return migrateBudget
}

func (f *Flat) Len() int { return f.live + f.oldLive }

func (f *Flat) Range(fn func(k pattern.PackedKey, n int64)) {
	for i := range f.slots {
		if f.slots[i].n != 0 {
			fn(f.slots[i].key, f.slots[i].n)
		}
	}
	for i := range f.old {
		if f.old[i].n != 0 {
			fn(f.old[i].key, f.old[i].n)
		}
	}
}

// ExpectInserts announces that about n mutating operations are about
// to stream in, without allocating anything: it only raises the
// incremental-rehash drain budget so an in-progress rehash retires its
// old array within the announced batch. Growth itself stays
// insert-driven: the table doubles only when live load actually
// crosses 3/4, so a batch that mostly updates existing keys allocates
// nothing at all.
func (f *Flat) ExpectInserts(n int) {
	if n <= 0 || f.old == nil {
		return
	}
	per := (len(f.old)+f.oldLive)/n + 1
	if per > f.drain {
		f.drain = per
	}
}

func (f *Flat) Negate() {
	for i := range f.slots {
		f.slots[i].n = -f.slots[i].n
	}
	for i := range f.old {
		f.old[i].n = -f.old[i].n
	}
}

func (f *Flat) Mem() Mem {
	return Mem{
		Live:  f.Len(),
		Slots: len(f.slots) + len(f.old),
		Bytes: int64(len(f.slots)+len(f.old)) * flatSlotBytes,
	}
}

// Grows reports how many rehashes the table has started (test hook for
// the incremental-rehash invariants).
func (f *Flat) Grows() int64 { return f.grows }

// Draining reports whether an incremental rehash is still in progress.
func (f *Flat) Draining() bool { return f.old != nil }

// Cap is the current slot capacity of the primary table.
func (f *Flat) Cap() int { return len(f.slots) }

// probeDistance is the number of slots key k sits away from its home
// slot (test hook: after any backward-shift delete, every entry's
// probe path from home to slot must be fully occupied).
func (f *Flat) probeDistance(i uint64) uint64 {
	home := hashKey(f.slots[i].key) & f.mask
	return (i - home) & f.mask
}
