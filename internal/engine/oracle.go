package engine

import (
	"math"

	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// shardOracle is the fan-out coverage oracle over the immutable
// per-core base indexes: the distinct combination sets of the cores
// are disjoint (the hash router partitions the combo space), so every
// quantity the lattice searches need — cov(P), the total row count,
// the distinct count, a combination's multiplicity — is the sum of
// the per-shard answers. It satisfies index.Oracle, so every MUP
// algorithm and repair runs against a sharded engine unchanged.
type shardOracle struct {
	schema *dataset.Schema
	bases  []*index.Index
	total  int64
	nDist  int
}

func newShardOracle(schema *dataset.Schema, bases []*index.Index) *shardOracle {
	o := &shardOracle{schema: schema, bases: bases}
	for _, b := range bases {
		o.total += b.Total()
		o.nDist += b.NumDistinct()
	}
	return o
}

// oracleFor returns the cheapest oracle over the folded bases: the
// bare index for a single core (keeping the devirtualized single-shard
// probe path), the summing fan-out otherwise.
func oracleFor(schema *dataset.Schema, bases []*index.Index) index.Oracle {
	if len(bases) == 1 {
		return bases[0]
	}
	return newShardOracle(schema, bases)
}

func (o *shardOracle) Schema() *dataset.Schema { return o.schema }
func (o *shardOracle) Cards() []int            { return o.schema.Cards() }
func (o *shardOracle) Total() int64            { return o.total }
func (o *shardOracle) NumDistinct() int        { return o.nDist }

// ComboCount routes to the owning shard: a full combination lives on
// exactly one core.
func (o *shardOracle) ComboCount(combo []uint8) int64 {
	return o.bases[shardOfRow(combo, len(o.bases))].ComboCount(combo)
}

// MatchHistogram accumulates every shard's histogram into hist: the
// shards' combinations are disjoint, so the sum is the histogram of
// the whole dataset.
func (o *shardOracle) MatchHistogram(combo []uint8, hist []int64) {
	for _, b := range o.bases {
		b.MatchHistogram(combo, hist)
	}
}

// Range visits every shard's combinations in turn: the shards'
// combination sets are disjoint, so no combination is visited twice and
// no counts need summing.
func (o *shardOracle) Range(fn func(combo []uint8, count int64)) {
	for _, b := range o.bases {
		b.Range(fn)
	}
}

// NewCoverageProber returns a prober holding one per-core prober; each
// probe resolves the per-shard counts and merges them by summation.
func (o *shardOracle) NewCoverageProber() index.CoverageProber {
	probers := make([]*index.Prober, len(o.bases))
	for i, b := range o.bases {
		probers[i] = b.NewProber()
	}
	return &shardProber{probers: probers}
}

// shardProber sums per-shard probes. Like index.Prober it is not safe
// for concurrent use; the level-synchronous searches give each worker
// its own.
type shardProber struct {
	probers []*index.Prober
	part    []int64 // scratch: one shard's answers to a batch
	probes  int64
	batches int64
}

func (p *shardProber) Coverage(pat pattern.Pattern) int64 {
	return p.CoverageAtLeast(pat, math.MaxInt64)
}

// CoverageAtLeast bounds each shard's probe by what the running sum
// still lacks of tau and stops once the sum reaches it. A total below
// tau kept every shard below its bound, so it is exact.
func (p *shardProber) CoverageAtLeast(pat pattern.Pattern, tau int64) int64 {
	p.probes++
	var c int64
	for _, pr := range p.probers {
		if c += pr.CoverageAtLeast(pat, tau-c); c >= tau {
			break
		}
	}
	return c
}

// CoverageBatch answers a whole candidate list shard-major: the outer
// loop walks the shards, the inner one the patterns, so each per-core
// index (bit vectors, densities, probe buffer) is touched for one
// contiguous stretch per level instead of being evicted and refetched
// once per candidate. One level of the MUP descent therefore costs one
// merged probe pass per shard, not one fan-out per candidate. Every
// shard's batch is bounded by tau and the partials are summed: a total
// below tau kept every partial below it, so it is exact, and a total at
// least tau is at least tau.
func (p *shardProber) CoverageBatch(ps []pattern.Pattern, tau int64, out []int64) {
	p.probes += int64(len(ps))
	p.batches++
	p.probers[0].CoverageBatch(ps, tau, out)
	if cap(p.part) < len(ps) {
		p.part = make([]int64, len(ps))
	}
	part := p.part[:len(ps)]
	for _, pr := range p.probers[1:] {
		pr.CoverageBatch(ps, tau, part)
		for i, c := range part {
			out[i] += c
		}
	}
}

// Probes counts logical probes: one per pattern, not one per shard, so
// the cost statistics stay comparable across shard counts.
func (p *shardProber) Probes() int64 { return p.probes }

var _ index.BatchCoverageProber = (*shardProber)(nil)
