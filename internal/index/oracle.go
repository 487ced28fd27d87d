package index

import (
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// Oracle is the read-side coverage interface the lattice searches
// probe. *Index is the canonical single-partition implementation; the
// incremental engine's sharded coordinator provides one that resolves
// each probe as the sum of per-shard counts (the distinct combination
// sets of the shards are disjoint, so coverage, totals and distinct
// counts are all additive).
//
// Implementations must be immutable once handed out: searches run on
// many goroutines and hold the oracle across their whole traversal.
type Oracle interface {
	// Schema returns the schema the oracle answers over.
	Schema() *dataset.Schema
	// Cards returns the cardinality vector. Callers must not modify it.
	Cards() []int
	// Total returns the row count — the coverage of the all-wildcard
	// root pattern.
	Total() int64
	// NumDistinct returns the number of distinct value combinations.
	NumDistinct() int
	// ComboCount returns the multiplicity of one full value combination
	// (zero if absent) — the level-d fast path of the bottom-up search.
	ComboCount(combo []uint8) int64
	// MatchHistogram adds the multiplicity of every distinct value
	// combination t to hist[m], where bit j of m is set iff
	// t[j] == combo[j]. len(hist) must be 1<<len(combo). The ancestors
	// of combo are exactly "combo with a subset S of its attributes
	// kept", and cov(S) is the sum of hist over the supersets of S, so
	// one histogram prices all 2^d of them. It accumulates rather than
	// overwrites because it is additive across partitions like every
	// other quantity here.
	MatchHistogram(combo []uint8, hist []int64)
	// Range calls fn once for every distinct value combination with its
	// (positive) multiplicity, in unspecified order; combo holds the
	// value codes in a buffer reused across calls. The cold search's
	// pattern cube is built from it, one add per combination.
	Range(fn func(combo []uint8, count int64))
	// NewCoverageProber returns a fresh prober for repeated coverage
	// probes. A prober is not safe for concurrent use; create one per
	// goroutine.
	NewCoverageProber() CoverageProber
}

// CoverageProber answers repeated coverage probes against one Oracle.
type CoverageProber interface {
	// Coverage returns cov(P).
	Coverage(p pattern.Pattern) int64
	// CoverageAtLeast returns cov(P) when it is below tau and some value
	// at least tau otherwise: all a search needs that only compares
	// coverage with its threshold, and it may stop counting at tau.
	CoverageAtLeast(p pattern.Pattern, tau int64) int64
	// Probes returns how many coverage computations this prober has
	// performed — the cost metric the paper's experiments track.
	Probes() int64
}

// BatchCoverageProber is the optional batched extension of
// CoverageProber: probers that can answer a whole candidate list in
// one call implement it, and the level-synchronous searches hand them
// one merged probe per lattice level instead of one call per
// candidate. The sharded fan-out prober is the implementation that
// profits — it iterates shard-major (shard outer, candidates inner),
// touching each shard's cache-resident index once per level rather
// than once per candidate.
//
// Implementations must answer as len(ps) individual CoverageAtLeast
// calls would — exactly below tau, at least tau otherwise — and must
// count len(ps) logical probes, so the paper's cost metric stays
// comparable whether or not batching is in play.
type BatchCoverageProber interface {
	CoverageProber
	// CoverageBatch writes CoverageAtLeast(ps[i], tau) into out[i] for
	// every i; tau = math.MaxInt64 asks for exact counts. len(out) must
	// equal len(ps).
	CoverageBatch(ps []pattern.Pattern, tau int64, out []int64)
}

// CoverageAll answers every pattern in ps, writing
// CoverageAtLeast(ps[i], tau) into out[i]: one batched call when the
// prober supports it, a per-pattern loop otherwise. The searches call
// this instead of type-asserting at every level; exact callers pass
// tau = math.MaxInt64.
func CoverageAll(pr CoverageProber, ps []pattern.Pattern, tau int64, out []int64) {
	if len(ps) == 0 {
		return
	}
	if bp, ok := pr.(BatchCoverageProber); ok {
		bp.CoverageBatch(ps, tau, out)
		return
	}
	for i, p := range ps {
		out[i] = pr.CoverageAtLeast(p, tau)
	}
}

// NewCoverageProber satisfies Oracle; it is NewProber behind the
// interface (hot loops holding the concrete *Index keep the direct,
// devirtualized path).
func (ix *Index) NewCoverageProber() CoverageProber { return ix.NewProber() }

var _ Oracle = (*Index)(nil)
var _ BatchCoverageProber = (*Prober)(nil)
