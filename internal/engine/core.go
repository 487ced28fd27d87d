package engine

import (
	"coverage/internal/countstore"
	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// shardOfRow routes a value combination to one of n shard cores by
// FNV-1a hash of its value codes. The router is a pure function of the
// combination and the shard count, so the same combination always
// lands on the same core, snapshots can be re-partitioned
// deterministically on restore, and the per-core distinct combination
// sets stay disjoint — which is what makes coverage, totals and
// distinct counts additive across cores. It takes a row or a State key.
func shardOfRow[R ~[]uint8 | ~string](row R, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(row); i++ {
		h ^= uint64(row[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// shardOf is shardOfRow over a combination's packed key.
func shardOf(codec *pattern.Codec, k pattern.PackedKey, n int) int {
	if n <= 1 {
		return 0
	}
	var buf [pattern.MaxKeyBits]uint8
	return shardOfRow(codec.AppendUnpack(buf[:0], k), n)
}

// shardCore is the lock-scoped single-shard heart of the engine: one
// hash partition of the combo space, held as the immutable base oracle
// (an index.Index over the partition's distinct value combinations)
// plus the signed pending delta of combinations mutated since the base
// was built, with compaction folding the delta back into a fresh base.
//
// A core owns no lock of its own. All access is scoped by the owning
// coordinator's RWMutex: the mutating methods run under the write
// lock (the coordinator serializes mutation batches and fans their
// per-core slices out in parallel — each goroutine touches exactly one
// core), the read methods under the read lock. The base index itself
// is immutable, so lattice searches snapshot it under the lock and
// probe it outside any lock.
type shardCore struct {
	schema *dataset.Schema
	opts   Options

	base     *index.Index
	pool     *index.Pool
	counts   *countstore.Flat // partition combo→multiplicity (base + delta)
	delta    []deltaEntry
	deltaPos *countstore.Flat // combo → 1+position in delta (0 = absent)
	rows     int64

	compactions int64
}

// newShardCore returns an empty core over the schema.
func newShardCore(schema *dataset.Schema, opts Options) *shardCore {
	c := &shardCore{
		schema:   schema,
		opts:     opts,
		counts:   countstore.NewFlat(0),
		deltaPos: countstore.NewFlat(0),
	}
	c.rebuild()
	c.compactions = 0 // the initial empty build is not a compaction
	return c
}

// seed installs the core's partition of a pre-deduplicated dataset and
// builds the base directly, bypassing the delta (construction path).
// The table is adopted, not copied — the caller hands over ownership.
func (c *shardCore) seed(counts *countstore.Flat) {
	c.counts = counts
	counts.Range(func(_ pattern.PackedKey, n int64) { c.rows += n })
	c.buildBase()
}

// buildBase builds the base oracle over the live count table.
func (c *shardCore) buildBase() {
	c.base = index.BuildFromKeys(c.schema, c.appendEntries(make([]index.Entry, 0, c.counts.Len())))
	c.pool = c.base.NewPool()
}

// appendEntries appends the live count table's entries to dst.
func (c *shardCore) appendEntries(dst []index.Entry) []index.Entry {
	c.counts.Range(func(k pattern.PackedKey, n int64) {
		dst = append(dst, index.Entry{Key: k, Count: n})
	})
	return dst
}

// applySigned merges one signed multiplicity change into the count
// table and the delta; the table prunes the combination the moment it
// reaches zero so compaction never rebuilds ghosts.
func (c *shardCore) applySigned(k pattern.PackedKey, n int64) {
	c.counts.Add(k, n)
	if pos := c.deltaPos.Get(k); pos > 0 {
		c.delta[pos-1].count += n
		return
	}
	c.delta = append(c.delta, deltaEntry{key: k, count: n})
	c.deltaPos.Set(k, int64(len(c.delta)))
}

// applyBatch applies a whole signed mutation table atomically from the
// coordinator's point of view (the coordinator holds the write lock
// for the entire cross-core mutation) and adjusts the core's row count
// by the table's sum. It never rebuilds the base: the compaction
// threshold bounds the delta scan a read pays, so the read enforces it
// (see pastThreshold), and a bulk load or a WAL replay builds each
// base once, when it is first read, instead of once per batch.
func (c *shardCore) applyBatch(muts *countstore.Flat) {
	muts.Range(func(k pattern.PackedKey, n int64) {
		if n == 0 {
			return
		}
		c.applySigned(k, n)
		c.rows += n
	})
}

// storeBytes is the core's resident table footprint: the count table
// plus the pending delta, both its position table and its entry list.
// Stats and ResidentBytes both report it, so /stats and the registry's
// eviction signal agree.
func (c *shardCore) storeBytes() int64 {
	return c.counts.Mem().Bytes + c.deltaPos.Mem().Bytes +
		int64(cap(c.delta))*deltaEntryBytes
}

// deltaEntryBytes is unsafe.Sizeof(deltaEntry{}) spelled as a
// constant: two key words plus the count.
const deltaEntryBytes = 24

// multiplicity returns the live count of one combination key.
func (c *shardCore) multiplicity(k pattern.PackedKey) int64 { return c.counts.Get(k) }

// pastThreshold reports whether the pending delta has crossed the
// compaction threshold, past which a read rebuilds the base before it
// probes. Thresholds apply per core: each partition compacts on its
// own (smaller) delta, so with N cores the rebuilds are both N×
// smaller and independently parallelizable.
func (c *shardCore) pastThreshold() bool {
	return len(c.delta) >= c.opts.compactMinDistinct() &&
		float64(len(c.delta)) >= c.opts.compactFraction()*float64(c.base.NumDistinct())
}

// rebuild clears the delta and rebuilds the base oracle from the full
// count table. The delta goes first, so a collection during the build
// can reclaim it: after a bulk load it holds every combination.
func (c *shardCore) rebuild() {
	c.delta = nil
	c.deltaPos = countstore.NewFlat(0)
	c.buildBase()
	c.compactions++
}

// coverageBatch writes the partition's contribution to cov(ps[i]) into
// out[i]: the base oracle's probe plus a scan of the (small) delta, in
// which ms[i], the masked key of ps[i], matches an entry with one
// masked compare.
func (c *shardCore) coverageBatch(ps []pattern.Pattern, ms []pattern.MaskedKey, out []int64) {
	c.pool.CoverageBatch(ps, out)
	if len(c.delta) == 0 {
		return
	}
	for i := range ms {
		m, n := &ms[i], out[i]
		for j := range c.delta {
			if d := &c.delta[j]; m.Matches(&d.key) {
				n += d.count
			}
		}
		out[i] = n
	}
}
