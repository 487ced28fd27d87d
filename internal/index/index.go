// Package index implements the coverage oracle of Appendix A of
// Asudeh et al. (ICDE 2019): inverted indices over the distinct value
// combinations of a dataset, one bit vector per attribute value, with
// cov(P) computed as a word-wise AND of the vectors of P's
// deterministic elements followed by a dot product with the
// per-combination multiplicity vector.
package index

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"coverage/internal/bitvec"
	"coverage/internal/countstore"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// Index is the immutable coverage oracle for one dataset. Build it
// once; probe it any number of times. Concurrent probes must use
// separate Probers.
//
// The multiplicity vector is held twice: as counts, one int64 per
// distinct combination, and bit-sliced into planes, where plane b holds
// bit b of every count. The probe kernel prices a dense word of matches
// from the planes (one popcount per plane) and a sparse one from counts
// (one load per match). The full-combo multiplicity table — hit by
// every deepest-level probe of the MUP descent — is a countstore.Probe
// over packed keys. The marginal table, built by the first
// Pool.CoverageBatch when the index's shape admits one, answers every
// pattern with at most its level (≤ 3) of fixed attributes with one
// load.
type Index struct {
	schema *dataset.Schema
	cards  []int
	vecs   [][]*bitvec.Vector // [attribute][value] → bits over distinct combos
	vals   [][]valueVec       // [attribute][value] → the kernel's view of vecs
	counts []int64            // multiplicity per distinct combo
	// planes holds bit b of the counts of combos 64w..64w+63 at
	// planes[w*nPlanes+b], so one word's planes share a cache line or two.
	planes  []uint64
	nPlanes int
	flat    *countstore.Probe // full combo → multiplicity
	codec   *pattern.Codec    // flat's key layout
	total   int64
	nDist   int
	// marg is the marginal table once built; margClaimed is set by the
	// one caller that builds it (or finds that no level fits).
	marg        atomic.Pointer[marginal]
	margClaimed atomic.Bool
}

// valueVec is one per-value bit vector as the probe kernel reads it:
// its words, the window [lo, hi) outside which every word is zero, and
// its set-bit count, which orders a probe's ANDs sparsest first.
type valueVec struct {
	words   []uint64
	lo, hi  int
	density int
}

// Build constructs the oracle for d (deduplicating internally).
func Build(d *dataset.Dataset) *Index {
	return BuildFromDistinct(d.Distinct())
}

// BuildFromDistinct constructs the oracle from an already
// deduplicated dataset, one column per combination in the given order.
func BuildFromDistinct(dd *dataset.Distinct) *Index {
	ix := newIndex(dd.Schema, pattern.NewKeyCodec(dd.Schema.Cards()), len(dd.Combos))
	ix.counts = dd.Counts
	for k, combo := range dd.Combos {
		ix.addCombo(k, combo, ix.codec.PackedKey(combo), dd.Counts[k])
	}
	ix.finish()
	return ix
}

// Entry is one full value combination, keyed in the layout of
// pattern.NewKeyCodec over the schema's cardinalities, with a
// multiplicity.
type Entry struct {
	Key   pattern.PackedKey
	Count int64
}

// Normalize puts entries into canonical form in place and returns the
// result: ascending value order (pattern.Codec.CompareValues, the
// sort.Strings order of the raw byte strings), counts of equal keys
// summed, and combinations whose total is not positive dropped.
// Entries already in ascending order are checked, not sorted again.
func Normalize(codec *pattern.Codec, entries []Entry) []Entry {
	if !slices.IsSortedFunc(entries, func(a, b Entry) int { return codec.CompareValues(a.Key, b.Key) }) {
		radixSort(codec, entries)
	}
	out := entries[:0]
	for _, e := range entries {
		if n := len(out); n > 0 && out[n-1].Key == e.Key {
			out[n-1].Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	return slices.DeleteFunc(out, func(e Entry) bool { return e.Count <= 0 })
}

// radixSort sorts entries into value order with one stable counting
// pass per attribute, the last attribute first, and none for an
// attribute on which every key agrees. Rebuilds sort thousands of keys,
// where this is several times faster than comparison sorting.
func radixSort(codec *pattern.Codec, entries []Entry) {
	src, dst := entries, make([]Entry, len(entries))
	for i := codec.Dim() - 1; i >= 0; i-- {
		var at [256]int
		for j := range src {
			at[codec.Value(src[j].Key, i)]++
		}
		if at[codec.Value(src[0].Key, i)] == len(src) {
			continue
		}
		pos := 0
		for v, n := range at {
			at[v], pos = pos, pos+n
		}
		for j := range src {
			v := codec.Value(src[j].Key, i)
			dst[at[v]] = src[j]
			at[v]++
		}
		src, dst = dst, src
	}
	copy(entries, src)
}

// BuildFromKeys constructs the oracle over entries, whose keys use the
// layout of pattern.NewKeyCodec(schema.Cards()): the rebuild path of
// the incremental engine. It normalizes entries in place (see
// Normalize), so the columns are in ascending value order — the order
// BuildFromDistinct gets from sorted combinations — and combinations
// with no live rows take no column: a ghost would keep NumDistinct and
// the probe windows paying for rows that no longer exist. The keys go
// into the full-combo table as they are, without packing again.
func BuildFromKeys(schema *dataset.Schema, entries []Entry) *Index {
	codec := pattern.NewKeyCodec(schema.Cards())
	entries = Normalize(codec, entries)
	ix := newIndex(schema, codec, len(entries))
	ix.counts = make([]int64, len(entries))
	combo := make([]uint8, 0, len(ix.cards))
	for k, e := range entries {
		combo = codec.AppendUnpack(combo[:0], e.Key)
		ix.addCombo(k, combo, e.Key, e.Count)
	}
	ix.finish()
	return ix
}

// BuildFromCounts constructs the oracle from a combo→multiplicity map
// keyed by raw value-code strings (pattern.Key of a full combination):
// BuildFromKeys over the map's entries.
func BuildFromCounts(schema *dataset.Schema, counts map[string]int64) *Index {
	codec := pattern.NewKeyCodec(schema.Cards())
	entries := make([]Entry, 0, len(counts))
	for k, n := range counts {
		entries = append(entries, Entry{Key: codec.PackedKeyString(k), Count: n})
	}
	return BuildFromKeys(schema, entries)
}

// newIndex allocates an oracle of n columns over the schema: the value
// vectors and the full-combo table, keyed by codec, which must be
// pattern.NewKeyCodec over the schema's cardinalities.
func newIndex(schema *dataset.Schema, codec *pattern.Codec, n int) *Index {
	cards := schema.Cards()
	ix := &Index{
		schema: schema,
		cards:  cards,
		vecs:   make([][]*bitvec.Vector, len(cards)),
		nDist:  n,
		codec:  codec,
		flat:   countstore.NewProbe(n),
	}
	for i, c := range cards {
		ix.vecs[i] = make([]*bitvec.Vector, c)
		for v := 0; v < c; v++ {
			ix.vecs[i][v] = bitvec.New(n)
		}
	}
	return ix
}

// addCombo fills column k with one combination, held both as value
// codes and as its key.
func (ix *Index) addCombo(k int, combo []uint8, key pattern.PackedKey, n int64) {
	for i, v := range combo {
		ix.vecs[i][v].Set(k)
	}
	ix.flat.Set(key, n)
	ix.counts[k] = n
	ix.total += n
}

// finish derives the probe kernel's view of the filled columns: each
// value vector's window and density, and the bit planes of the counts.
func (ix *Index) finish() {
	ix.vals = make([][]valueVec, len(ix.cards))
	for i, c := range ix.cards {
		ix.vals[i] = make([]valueVec, c)
		for v := 0; v < c; v++ {
			vec := ix.vecs[i][v]
			lo, hi := vec.Bounds()
			ix.vals[i][v] = valueVec{words: vec.Words(), lo: lo, hi: hi, density: vec.Count()}
		}
	}
	ix.slicePlanes()
}

// slicePlanes builds the bit planes of the counts: bits.Len64 of the
// largest count of them, word-interleaved.
func (ix *Index) slicePlanes() {
	var most int64
	for _, n := range ix.counts {
		most = max(most, n)
	}
	ix.nPlanes = bits.Len64(uint64(most))
	ix.planes = make([]uint64, (ix.nDist+63)/64*ix.nPlanes)
	for k, n := range ix.counts {
		pl := ix.planes[k/64*ix.nPlanes:]
		for b := 0; n != 0; b, n = b+1, n>>1 {
			pl[b] |= uint64(n&1) << (k % 64)
		}
	}
}

// fullCount is the full-combo multiplicity lookup backing ComboCount
// and the deepest-level probe fast path.
func (ix *Index) fullCount(p pattern.Pattern) int64 {
	if ix.codec.Raw() {
		return ix.flat.GetRaw(p)
	}
	return ix.flat.Get(ix.codec.PackedKey(p))
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
// multiplicity, in unspecified order. combo holds the value codes in a
// buffer reused across calls: fn must copy what it keeps. Because the
// index is immutable, Range is safe to call concurrently with probes.
func (ix *Index) Range(fn func(combo []uint8, count int64)) {
	buf := make([]uint8, 0, len(ix.cards))
	ix.flat.Range(func(k pattern.PackedKey, c int64) {
		buf = ix.codec.AppendUnpack(buf[:0], k)
		fn(buf, c)
	})
}

// AppendEntries appends every distinct value combination's key and
// multiplicity to dst, in unspecified order, and returns the extended
// slice. The keys use the layout of pattern.NewKeyCodec.
func (ix *Index) AppendEntries(dst []Entry) []Entry {
	ix.flat.Range(func(k pattern.PackedKey, c int64) {
		dst = append(dst, Entry{Key: k, Count: c})
	})
	return dst
}

// Prober performs allocation-free repeated coverage probes against an
// Index. A Prober is not safe for concurrent use; create one per
// goroutine.
type Prober struct {
	ix  *Index
	buf []uint64 // scratch: the running AND of a probe of 3+ values
	det []int    // scratch: deterministic attribute positions
	// The prefix stack of a batch (see CoverageBatch) and its per-level
	// buffers, each allocated when its level is first needed.
	stack  []prefixAND
	bufs   [][]uint64
	probes int64 // number of coverage computations performed
	// kernelOnly makes the prober ignore the marginal table, so tests
	// can check the table's answers against the kernel's.
	kernelOnly bool
}

// NewProber returns a fresh Prober for the index.
func (ix *Index) NewProber() *Prober {
	return &Prober{
		ix:   ix,
		buf:  make([]uint64, (ix.nDist+63)/64),
		det:  make([]int, 0, len(ix.cards)),
		bufs: make([][]uint64, len(ix.cards)),
	}
}

// Probes returns how many coverage computations this Prober has
// performed — the cost metric the paper's experiments track alongside
// wall-clock time.
func (pr *Prober) Probes() int64 { return pr.probes }

// Coverage returns cov(P) for the prober's index: CoverageAtLeast with
// no threshold to stop at.
func (pr *Prober) Coverage(p pattern.Pattern) int64 {
	return pr.CoverageAtLeast(p, math.MaxInt64)
}

// CoverageAtLeast returns cov(P) when it is below tau, and otherwise
// some value at least tau: the question a lattice search asks. A
// pattern the index's marginal table holds is one load. Otherwise the
// deterministic attributes' vectors are intersected sparsest-first,
// only over the intersection of their nonzero windows. The first AND
// reads the sparsest vector in place and writes the scratch buffer,
// every later one tightens the window to the words still nonzero and
// exits once it empties, and the last is fused with the dot product
// against the counts, which returns as soon as its running sum reaches
// tau. A probe of one or two values writes no buffer at all.
func (pr *Prober) CoverageAtLeast(p pattern.Pattern, tau int64) int64 {
	ix := pr.ix
	pr.checkDim(p)
	pr.probes++
	pr.det = pr.det[:0]
	for i, v := range p {
		if v != pattern.Wildcard {
			pr.det = append(pr.det, i)
		}
	}
	switch m := pr.table(); {
	case len(pr.det) == 0:
		return ix.total // root pattern matches everything
	case m != nil && len(pr.det) <= m.level:
		return m.at(p, pr.det)
	case len(pr.det) == len(p):
		return ix.fullCount(p)
	}
	// Sparsest vector first (insertion sort; the list is tiny).
	for a := 1; a < len(pr.det); a++ {
		i := pr.det[a]
		di := ix.vals[i][p[i]].density
		b := a - 1
		for b >= 0 && ix.vals[pr.det[b]][p[pr.det[b]]].density > di {
			pr.det[b+1] = pr.det[b]
			b--
		}
		pr.det[b+1] = i
	}
	lo, hi := 0, len(pr.buf)
	for _, i := range pr.det {
		v := &ix.vals[i][p[i]]
		lo, hi = max(lo, v.lo), min(hi, v.hi)
	}
	if lo >= hi {
		return 0
	}
	first := ix.vals[pr.det[0]][p[pr.det[0]]].words
	last := ix.vals[pr.det[len(pr.det)-1]][p[pr.det[len(pr.det)-1]]].words
	for k := 1; k < len(pr.det)-1; k++ {
		i := pr.det[k]
		lo, hi = andWindow(pr.buf, first, ix.vals[i][p[i]].words, lo, hi)
		if lo >= hi {
			return 0
		}
		first = pr.buf
	}
	return ix.andDot(first, last, lo, hi, tau)
}

// table returns the index's marginal table, nil while it has none
// or when the prober is kernel-only.
func (pr *Prober) table() *marginal {
	if pr.kernelOnly {
		return nil
	}
	return pr.ix.marg.Load()
}

// checkDim panics unless p has the schema's dimension.
func (pr *Prober) checkDim(p pattern.Pattern) {
	if len(p) != len(pr.ix.cards) {
		panic(fmt.Sprintf("index: pattern dimension %d does not match schema dimension %d", len(p), len(pr.ix.cards)))
	}
}

// andWindow writes dst = a ∧ b over the word window [lo, hi) and
// returns the window of the nonzero words written (lo >= hi when all
// are zero). dst may be a; its words outside the window are left stale
// and never read.
func andWindow(dst, a, b []uint64, lo, hi int) (newLo, newHi int) {
	newLo, newHi = hi, hi
	for w := lo; w < hi; w++ {
		x := a[w] & b[w]
		dst[w] = x
		if x != 0 {
			newLo = min(newLo, w)
			newHi = w + 1
		}
	}
	return newLo, newHi
}

// andDot returns Σ counts[k] over the bits k set in both a and b within
// the word window [lo, hi), or the running sum as soon as it reaches
// tau. A word with fewer matches than there are planes is priced match
// by match from the counts; a denser one as Σ_b popcount(m & plane_b) << b.
func (ix *Index) andDot(a, b []uint64, lo, hi int, tau int64) int64 {
	np := ix.nPlanes
	a, b = a[lo:hi], b[lo:hi]
	var sum int64
	for j, x := range a {
		m := x & b[j]
		if m == 0 {
			continue
		}
		w := lo + j
		if bits.OnesCount64(m) < np {
			counts := ix.counts[w*64:]
			for ; m != 0; m &= m - 1 {
				sum += counts[bits.TrailingZeros64(m)]
			}
		} else {
			for bit, plane := range ix.planes[w*np : w*np+np] {
				sum += int64(bits.OnesCount64(m&plane)) << bit
			}
		}
		if sum >= tau {
			return sum
		}
	}
	return sum
}

// CoverageBatch writes CoverageAtLeast(ps[i], tau) into out[i] for
// every pattern in ps. Consecutive patterns that share their first two
// deterministic elements share the intersections of their common
// leading elements: the walk's level, in Rule-1 order, lists a covered
// node's children together and its grandchildren by parent, so each
// prefix is ANDed once per batch and a sibling costs one fused AND and
// count. A pattern that shares no such head with a neighbour, like
// most of a random /coverage batch, takes the per-pattern path.
func (pr *Prober) CoverageBatch(ps []pattern.Pattern, tau int64, out []int64) {
	pr.stack = pr.stack[:0]
	for i, p := range ps {
		k := headLen(p)
		if k > 0 && (i > 0 && sameHead(p, ps[i-1], k) || i+1 < len(ps) && sameHead(p, ps[i+1], k)) {
			out[i] = pr.stacked(p, tau)
		} else {
			out[i] = pr.CoverageAtLeast(p, tau)
		}
	}
}

// headLen returns the length of p's head, the elements up to and
// including its second deterministic one, or 0 when p has fewer than
// two.
func headLen(p pattern.Pattern) int {
	seen := false
	for i, v := range p {
		if v != pattern.Wildcard {
			if seen {
				return i + 1
			}
			seen = true
		}
	}
	return 0
}

func sameHead(p, q pattern.Pattern, k int) bool {
	return len(q) == len(p) && bytes.Equal(p[:k], q[:k])
}

// prefixAND is one level of the prober's prefix stack: the AND of the
// vectors of a pattern's deterministic elements up to the one at pos,
// nonzero only within the word window [lo, hi). Level k's words are the
// value vector itself at k = 0 and bufs[k] above; the level holds no
// pointer, so pushing one costs no write barrier.
type prefixAND struct {
	pos    int
	val    uint8
	lo, hi int
}

// stacked is CoverageAtLeast with the deterministic elements ANDed in
// position order on the prefix stack: the levels p shares with the
// stack's top pattern are kept, the rest recomputed into per-level
// buffers, and the last element is fused with the count. A pattern the
// marginal table holds is read from it and leaves the stack as it was.
func (pr *Prober) stacked(p pattern.Pattern, tau int64) int64 {
	ix := pr.ix
	pr.checkDim(p)
	pr.probes++
	pr.det = pr.det[:0]
	for i, v := range p {
		if v != pattern.Wildcard {
			pr.det = append(pr.det, i)
		}
	}
	if m := pr.table(); m != nil && len(pr.det) <= m.level {
		return m.at(p, pr.det)
	}
	n := len(pr.det) - 1
	if n+1 == len(p) {
		return ix.fullCount(p)
	}
	k := 0
	for k < len(pr.stack) && k < n && pr.stack[k].pos == pr.det[k] && pr.stack[k].val == p[pr.det[k]] {
		k++
	}
	pr.stack = pr.stack[:k]
	for ; k < n; k++ {
		i := pr.det[k]
		v := &ix.vals[i][p[i]]
		lo, hi := v.lo, v.hi
		if k > 0 {
			if pr.bufs[k] == nil {
				pr.bufs[k] = make([]uint64, len(pr.buf))
			}
			top := pr.stack[k-1]
			lo, hi = andWindow(pr.bufs[k], pr.words(k-1), v.words, max(top.lo, lo), min(top.hi, hi))
		}
		pr.stack = append(pr.stack, prefixAND{pos: i, val: p[i], lo: lo, hi: hi})
	}
	top, last := pr.stack[n-1], &ix.vals[pr.det[n]][p[pr.det[n]]]
	lo, hi := max(top.lo, last.lo), min(top.hi, last.hi)
	if lo >= hi {
		return 0
	}
	return ix.andDot(pr.words(n-1), last.words, lo, hi, tau)
}

// words returns the words of stack level k.
func (pr *Prober) words(k int) []uint64 {
	if k == 0 {
		l := &pr.stack[0]
		return pr.ix.vals[l.pos][l.val].words
	}
	return pr.bufs[k]
}

// Pool is a concurrency-safe front end to repeated coverage probes: it
// keeps a free list of Probers so concurrent readers neither share a
// probe buffer nor allocate one per call. Deliberately no shared
// counters — the concurrent hot path must not contend on a cache
// line. The zero Pool is not usable; obtain one from Index.NewPool.
type Pool struct {
	ix      *Index
	probers sync.Pool
}

// NewPool returns a Pool of Probers for the index.
func (ix *Index) NewPool() *Pool {
	pl := &Pool{ix: ix}
	pl.probers.New = func() any { return ix.NewProber() }
	return pl
}

// CoverageBatch writes cov(ps[i]) into out[i] for every pattern in ps,
// all on one Prober. It is safe for concurrent use. It is the repeating
// path, /coverage's, so the first call builds the index's marginal
// table; no other caller does.
func (pl *Pool) CoverageBatch(ps []pattern.Pattern, out []int64) {
	pl.ix.ensureMarginal()
	pr := pl.probers.Get().(*Prober)
	pr.CoverageBatch(ps, math.MaxInt64, out)
	pl.probers.Put(pr)
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
