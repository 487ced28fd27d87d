// Package index implements the coverage oracle of Appendix A of
// Asudeh et al. (ICDE 2019): inverted indices over the distinct value
// combinations of a dataset, one bit vector per attribute value, with
// cov(P) computed as a word-wise AND of the vectors of P's
// deterministic elements followed by a dot product with the
// per-combination multiplicity vector.
package index

import (
	"fmt"
	"sort"
	"sync"

	"coverage/internal/bitvec"
	"coverage/internal/countstore"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// Index is the immutable coverage oracle for one dataset. Build it
// once; probe it any number of times. Concurrent probes must use
// separate Probers.
//
// The full-combo multiplicity table — hit by every deepest-level probe
// of the MUP descent — is a countstore.Probe over packed keys.
type Index struct {
	schema  *dataset.Schema
	cards   []int
	vecs    [][]*bitvec.Vector // [attribute][value] → bits over distinct combos
	density [][]int            // [attribute][value] → set-bit count of the vector
	counts  []int64            // multiplicity per distinct combo
	flat    *countstore.Probe  // full combo → multiplicity
	codec   *pattern.Codec     // flat's key layout
	total   int64
	nDist   int
}

// Build constructs the oracle for d (deduplicating internally).
func Build(d *dataset.Dataset) *Index {
	return BuildFromDistinct(d.Distinct())
}

// BuildFromDistinct constructs the oracle from an already
// deduplicated dataset.
func BuildFromDistinct(dd *dataset.Distinct) *Index {
	cards := dd.Schema.Cards()
	ix := &Index{
		schema: dd.Schema,
		cards:  cards,
		vecs:   make([][]*bitvec.Vector, len(cards)),
		counts: dd.Counts,
		nDist:  len(dd.Combos),
	}
	ix.initComboStore(len(dd.Combos))
	for i, c := range cards {
		ix.vecs[i] = make([]*bitvec.Vector, c)
		for v := 0; v < c; v++ {
			ix.vecs[i][v] = bitvec.New(ix.nDist)
		}
	}
	for k, combo := range dd.Combos {
		for i, v := range combo {
			ix.vecs[i][v].Set(k)
		}
		ix.setCombo(combo, dd.Counts[k])
		ix.total += dd.Counts[k]
	}
	ix.density = make([][]int, len(cards))
	for i, c := range cards {
		ix.density[i] = make([]int, c)
		for v := 0; v < c; v++ {
			ix.density[i][v] = ix.vecs[i][v].Count()
		}
	}
	return ix
}

// initComboStore allocates the full-combo count table. The table only
// hashes its keys, so it takes the byte-aligned raw layout where the
// schema has one: every deepest-level probe then packs with two word
// loads instead of a per-attribute shift-and-mask loop.
func (ix *Index) initComboStore(hint int) {
	if len(ix.cards) <= pattern.RawKeyDim {
		ix.codec = pattern.NewRawCodec(len(ix.cards))
	} else {
		ix.codec = pattern.NewCodec(ix.cards)
	}
	ix.flat = countstore.NewProbe(hint)
}

func (ix *Index) setCombo(combo []uint8, n int64) {
	ix.flat.Set(ix.codec.PackedKey(pattern.Pattern(combo)), n)
}

// fullCount is the full-combo multiplicity lookup backing ComboCount
// and the deepest-level probe fast path.
func (ix *Index) fullCount(p pattern.Pattern) int64 {
	if ix.codec.Raw() {
		return ix.flat.GetRaw(p)
	}
	return ix.flat.Get(ix.codec.PackedKey(p))
}

// BuildFromCounts constructs the oracle from a combo→multiplicity map
// (keys are raw value-code strings, as produced by pattern.Key on a
// fully deterministic pattern). Combination order is the sorted key
// order, making the result deterministic for a fixed map. This is the
// rebuild path of the incremental engine: it skips row storage and
// re-deduplication entirely.
//
// Combinations whose count has decremented to zero (or below) are
// pruned rather than kept as ghosts: a combo with no live rows must not
// occupy a bit-vector column, or NumDistinct and the probe windows
// would keep paying for rows that no longer exist.
func BuildFromCounts(schema *dataset.Schema, counts map[string]int64) *Index {
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		if c <= 0 {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dd := &dataset.Distinct{
		Schema: schema,
		Combos: make([][]uint8, len(keys)),
		Counts: make([]int64, len(keys)),
	}
	for i, k := range keys {
		dd.Combos[i] = []uint8(k)
		dd.Counts[i] = counts[k]
	}
	return BuildFromDistinct(dd)
}

// Schema returns the schema the oracle was built over.
func (ix *Index) Schema() *dataset.Schema { return ix.schema }

// Cards returns the cardinality vector.
func (ix *Index) Cards() []int { return ix.cards }

// Total returns the number of rows of the underlying dataset —
// the coverage of the all-wildcard root pattern.
func (ix *Index) Total() int64 { return ix.total }

// NumDistinct returns the number of distinct value combinations.
func (ix *Index) NumDistinct() int { return ix.nDist }

// ComboCount returns the multiplicity of one full value combination
// (zero if absent). This is the level-d fast path used by the
// bottom-up algorithm.
func (ix *Index) ComboCount(combo []uint8) int64 {
	return ix.fullCount(pattern.Pattern(combo))
}

// MatchHistogram adds every distinct combination's multiplicity to
// hist[m], m being the set of attributes on which it agrees with combo
// (see Oracle). Each agreeing (combination, attribute) pair is one set
// bit of the per-value vector vecs[j][combo[j]], so the pass costs the
// densities of combo's d values plus one add per distinct combination —
// no stored rows needed.
func (ix *Index) MatchHistogram(combo []uint8, hist []int64) {
	if len(combo) != len(ix.cards) || len(hist) != 1<<len(combo) {
		panic(fmt.Sprintf("index: match histogram of %d cells for a %d-attribute combination over a %d-attribute schema",
			len(hist), len(combo), len(ix.cards)))
	}
	masks := make([]uint32, ix.nDist)
	for j, v := range combo {
		bit := uint32(1) << j
		ix.vecs[j][v].ForEach(func(k int) { masks[k] |= bit })
	}
	for k, m := range masks {
		hist[m] += ix.counts[k]
	}
}

// Coverage returns cov(P). It allocates a probe buffer per call; hot
// loops should hold a Prober instead.
func (ix *Index) Coverage(p pattern.Pattern) int64 {
	return ix.NewProber().Coverage(p)
}

// Range calls fn for every distinct value combination with its
// multiplicity, in unspecified order. The combo string is the raw
// value-code key (as produced by pattern.Key on a fully deterministic
// pattern). Because the index is immutable, Range is safe to call
// concurrently with probes — this is how the engine snapshots its bulk
// state without copying the combo map under a lock.
func (ix *Index) Range(fn func(combo string, count int64)) {
	buf := make([]uint8, 0, len(ix.cards))
	ix.flat.Range(func(k pattern.PackedKey, c int64) {
		buf = ix.codec.AppendUnpack(buf[:0], k)
		fn(string(buf), c)
	})
}

// Prober performs allocation-free repeated coverage probes against an
// Index. A Prober is not safe for concurrent use; create one per
// goroutine.
type Prober struct {
	ix     *Index
	buf    *bitvec.Vector
	det    []int // scratch: deterministic attribute positions
	probes int64 // number of coverage computations performed
}

// NewProber returns a fresh Prober for the index.
func (ix *Index) NewProber() *Prober {
	return &Prober{ix: ix, buf: bitvec.New(ix.nDist), det: make([]int, 0, len(ix.cards))}
}

// Probes returns how many coverage computations this Prober has
// performed — the cost metric the paper's experiments track alongside
// wall-clock time.
func (pr *Prober) Probes() int64 { return pr.probes }

// Coverage returns cov(P) for the prober's index. The deterministic
// attributes are intersected sparsest-first so the running match set
// collapses as early as possible, the AND chain touches only the
// shrinking nonzero word window, and the probe exits as soon as the
// window empties.
func (pr *Prober) Coverage(p pattern.Pattern) int64 {
	ix := pr.ix
	if len(p) != len(ix.cards) {
		panic(fmt.Sprintf("index: pattern dimension %d does not match schema dimension %d", len(p), len(ix.cards)))
	}
	pr.probes++
	pr.det = pr.det[:0]
	for i, v := range p {
		if v != pattern.Wildcard {
			pr.det = append(pr.det, i)
		}
	}
	switch len(pr.det) {
	case 0:
		return ix.total // root pattern matches everything
	case len(p):
		return ix.fullCount(p)
	}
	// Sparsest vector first (insertion sort; the list is tiny).
	for a := 1; a < len(pr.det); a++ {
		i := pr.det[a]
		di := ix.density[i][p[i]]
		b := a - 1
		for b >= 0 && ix.density[pr.det[b]][p[pr.det[b]]] > di {
			pr.det[b+1] = pr.det[b]
			b--
		}
		pr.det[b+1] = i
	}
	first := pr.det[0]
	pr.buf.CopyFrom(ix.vecs[first][p[first]])
	lo, hi := pr.buf.Bounds()
	for _, i := range pr.det[1:] {
		if lo >= hi {
			return 0
		}
		lo, hi = pr.buf.AndWindow(ix.vecs[i][p[i]], lo, hi)
	}
	if lo >= hi {
		return 0
	}
	return pr.buf.DotCountsRange(ix.counts, lo, hi)
}

// CoverageBatch writes cov(ps[i]) into out[i] for every pattern in
// ps. On a single partition a batch is simply the per-pattern loop
// (each probe already runs against the one cache-resident index); the
// method exists so the bare *Index satisfies BatchCoverageProber and
// search code can batch unconditionally.
func (pr *Prober) CoverageBatch(ps []pattern.Pattern, out []int64) {
	for i, p := range ps {
		out[i] = pr.Coverage(p)
	}
}

// Pool is a concurrency-safe front end to repeated coverage probes: it
// keeps a free list of Probers so concurrent readers neither share a
// probe buffer nor allocate one per call. Deliberately no shared
// counters — the concurrent hot path must not contend on a cache
// line. The zero Pool is not usable; obtain one from Index.NewPool.
type Pool struct {
	probers sync.Pool
}

// NewPool returns a Pool of Probers for the index.
func (ix *Index) NewPool() *Pool {
	pl := &Pool{}
	pl.probers.New = func() any { return ix.NewProber() }
	return pl
}

// Coverage returns cov(P). It is safe for concurrent use.
func (pl *Pool) Coverage(p pattern.Pattern) int64 {
	pr := pl.probers.Get().(*Prober)
	c := pr.Coverage(p)
	pl.probers.Put(pr)
	return c
}

// MatchVector writes into dst the bit vector of distinct combinations
// matching P (one bit per distinct combo). dst must have length
// NumDistinct. Used by callers that need the matching set itself
// rather than its cardinality.
func (ix *Index) MatchVector(p pattern.Pattern, dst *bitvec.Vector) {
	if len(p) != len(ix.cards) {
		panic(fmt.Sprintf("index: pattern dimension %d does not match schema dimension %d", len(p), len(ix.cards)))
	}
	dst.SetAll()
	for i, v := range p {
		if v != pattern.Wildcard {
			dst.And(ix.vecs[i][v])
		}
	}
}
