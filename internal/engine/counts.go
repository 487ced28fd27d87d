package engine

import (
	"coverage/internal/countstore"
	"coverage/internal/pattern"
)

// countTable is the engine's uniform view over one combo→count table,
// with exactly two implementations chosen by keyCodec.packed: a
// countstore.Flat over packed keys on packable schemas, and a
// map[comboKey]int64 over raw byte strings past the 128-bit packing
// limit. The zero count is never stored — add and set delete a key the
// moment its count reaches zero, exactly the pruning discipline the
// signed mutation path relies on.
type countTable interface {
	get(k comboKey) int64
	// add adds the signed n and returns the new count.
	add(k comboKey, n int64) int64
	// set stores the absolute n; 0 deletes.
	set(k comboKey, n int64)
	size() int
	// each calls fn for every live key; mutating the table during
	// iteration is not allowed.
	each(fn func(k comboKey, n int64))
	// reserve announces about extra upcoming mutations so a flat
	// table's incremental rehash paces its drain (no allocation —
	// growth stays insert-driven); the map ignores it.
	reserve(extra int)
	// negate flips every count's sign in place (the delete path builds
	// a batch of positive needs, validates, then negates it wholesale).
	negate()
	mem() countstore.Mem
}

// newTable builds a count table for about hint keys in the engine's
// key representation — shard cores, batch accumulators, delta
// positions and tombstone sets all use the same one.
func (kc *keyCodec) newTable(hint int) countTable {
	if kc.packed {
		return flatTable{countstore.NewFlat(hint)}
	}
	return make(comboMap, hint)
}

// tableName is what Stats reports for the tables newTable builds.
func (kc *keyCodec) tableName() string {
	if kc.packed {
		return "flat"
	}
	return "map"
}

// flatTable adapts countstore.Flat to comboKey (packed representation
// only — newTable never hands it out on string-keyed engines).
type flatTable struct{ t *countstore.Flat }

func (f flatTable) get(k comboKey) int64          { return f.t.Get(k.pk) }
func (f flatTable) add(k comboKey, n int64) int64 { return f.t.Add(k.pk, n) }
func (f flatTable) set(k comboKey, n int64)       { f.t.Set(k.pk, n) }
func (f flatTable) size() int                     { return f.t.Len() }
func (f flatTable) reserve(extra int)             { f.t.ExpectInserts(extra) }
func (f flatTable) negate()                       { f.t.Negate() }
func (f flatTable) mem() countstore.Mem           { return f.t.Mem() }
func (f flatTable) each(fn func(k comboKey, n int64)) {
	f.t.Range(func(pk pattern.PackedKey, n int64) { fn(comboKey{pk: pk}, n) })
}

// comboMap is the byte-string fallback: the only table for schemas
// wider than 128 bits, and the reference side of the packed-vs-string
// equivalence suite.
type comboMap map[comboKey]int64

func (m comboMap) get(k comboKey) int64 { return m[k] }

func (m comboMap) add(k comboKey, n int64) int64 {
	c := m[k] + n
	if c == 0 {
		delete(m, k)
		return 0
	}
	m[k] = c
	return c
}

func (m comboMap) set(k comboKey, n int64) {
	if n == 0 {
		delete(m, k)
		return
	}
	m[k] = n
}

func (m comboMap) size() int { return len(m) }

func (m comboMap) each(fn func(k comboKey, n int64)) {
	for k, n := range m {
		fn(k, n)
	}
}

func (m comboMap) reserve(int) {}

func (m comboMap) negate() {
	for k, n := range m {
		m[k] = -n
	}
}

// comboMapEntryBytes approximates a map entry's resident cost: the
// 32-byte comboKey (two packed words plus a string header), the count,
// and bucket overhead.
const comboMapEntryBytes = 64

func (m comboMap) mem() countstore.Mem {
	return countstore.Mem{Live: len(m), Bytes: int64(len(m)) * comboMapEntryBytes}
}
