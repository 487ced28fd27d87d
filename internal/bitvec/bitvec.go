// Package bitvec provides the fixed- and growable-width bit vectors
// backing the inverted indices of Appendices A and B of Asudeh et al.
// (ICDE 2019): per-attribute-value vectors over distinct value
// combinations (coverage oracle) and over discovered MUPs (dominance
// index).
//
// The hot operations are word-wise AND with early exit, population
// count, and a counted dot product (popcount weighted by per-position
// multiplicities), all allocation-free once destination buffers exist.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a bit vector of a fixed logical length. The zero value is
// an empty vector of length 0.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed vector with n bits.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, wordsFor(n)), n: n}
}

// NewOnes returns a vector with all n bits set.
func NewOnes(n int) *Vector {
	v := New(n)
	v.SetAll()
	return v
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the logical number of bits.
func (v *Vector) Len() int { return v.n }

// Words returns the vector's backing words, bit i at bit i%64 of word
// i/64, with the unused high bits of the last word zero. The slice
// aliases the vector: callers read it and must not modify it.
func (v *Vector) Words() []uint64 { return v.words }

// Set sets bit i to 1. It panics if i is out of range.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0, %d)", i, v.n))
	}
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that popcounts
// and equality never see garbage.
func (v *Vector) trim() {
	if r := uint(v.n) % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// Reset makes v a zeroed vector of n bits, reusing its storage when it
// is large enough.
func (v *Vector) Reset(n int) {
	w := wordsFor(n)
	if cap(v.words) < w {
		v.words = make([]uint64, w)
	} else {
		v.words = v.words[:w]
		clear(v.words)
	}
	v.n = n
}

// Clone returns a copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of src. The lengths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

func (v *Vector) mustMatch(w *Vector) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch: %d vs %d", v.n, w.n))
	}
}

// And sets v = v ∧ w.
func (v *Vector) And(w *Vector) {
	v.mustMatch(w)
	for i := range v.words {
		v.words[i] &= w.words[i]
	}
}

// AndInto sets dst = v ∧ w without modifying v.
func (v *Vector) AndInto(w, dst *Vector) {
	v.mustMatch(w)
	v.mustMatch(dst)
	for i := range v.words {
		dst.words[i] = v.words[i] & w.words[i]
	}
}

// Or sets v = v ∨ w.
func (v *Vector) Or(w *Vector) {
	v.mustMatch(w)
	for i := range v.words {
		v.words[i] |= w.words[i]
	}
}

// OrInto sets dst = v ∨ w without modifying v.
func (v *Vector) OrInto(w, dst *Vector) {
	v.mustMatch(w)
	v.mustMatch(dst)
	for i := range v.words {
		dst.words[i] = v.words[i] | w.words[i]
	}
}

// AndNot sets v = v ∧ ¬w (clears from v every bit set in w).
func (v *Vector) AndNot(w *Vector) {
	v.mustMatch(w)
	for i := range v.words {
		v.words[i] &^= w.words[i]
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyAnd reports whether v ∧ w has any set bit, scanning word by word
// and stopping at the first hit (the "early stop strategy" of
// Appendix B).
func (v *Vector) AnyAnd(w *Vector) bool {
	v.mustMatch(w)
	for i := range v.words {
		if v.words[i]&w.words[i] != 0 {
			return true
		}
	}
	return false
}

// Bounds returns the word window [lo, hi) containing every nonzero
// word of v (lo >= hi for an all-zero vector).
func (v *Vector) Bounds() (lo, hi int) {
	lo, hi = len(v.words), 0
	for i, w := range v.words {
		if w != 0 {
			if i < lo {
				lo = i
			}
			hi = i + 1
		}
	}
	return lo, hi
}

// CountAnd returns |v ∧ w| without materializing the intersection.
func (v *Vector) CountAnd(w *Vector) int {
	v.mustMatch(w)
	n := 0
	for i := range v.words {
		n += bits.OnesCount64(v.words[i] & w.words[i])
	}
	return n
}

// CountRuns returns the number of runs of set bits in v, where a set
// bit continues the run of the bit before it only if that bit is set
// too and cont has the bit itself set; every other set bit starts a
// run. Word by word it is Σ popcount(w &^ ((w<<1 | carry) & cont)), as
// cheap as CountAnd. With cont marking the positions that share a
// group with their predecessor, it counts the groups v touches when
// each group's members in v are contiguous.
func (v *Vector) CountRuns(cont *Vector) int {
	v.mustMatch(cont)
	n := 0
	var carry uint64
	for i, w := range v.words {
		n += bits.OnesCount64(w &^ ((w<<1 | carry) & cont.words[i]))
		carry = w >> (wordBits - 1)
	}
	return n
}

// DotCounts returns Σ counts[i] over the set bits i of v — the dot
// product of the bit vector with a multiplicity vector, used by the
// coverage oracle of Appendix A where counts holds the number of
// dataset rows per distinct value combination. len(counts) must equal
// v.Len().
func (v *Vector) DotCounts(counts []int64) int64 {
	if len(counts) != v.n {
		panic(fmt.Sprintf("bitvec: counts length %d does not match vector length %d", len(counts), v.n))
	}
	var sum int64
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			sum += counts[wi*wordBits+b]
			w &= w - 1
		}
	}
	return sum
}

// ForEach calls fn with the index of every set bit in ascending order.
func (v *Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Equal reports whether v and w have the same length and contents.
func (v *Vector) Equal(w *Vector) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a 0/1 string, lowest index first.
func (v *Vector) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Grower is an append-only bit vector used by the MUP dominance index
// of Appendix B, where one bit is appended per newly discovered MUP.
// The zero value is an empty vector ready for use.
type Grower struct {
	words []uint64
	n     int
}

// Len returns the number of appended bits.
func (g *Grower) Len() int { return g.n }

// Append adds one bit at the end.
func (g *Grower) Append(bit bool) {
	if g.n%wordBits == 0 {
		g.words = append(g.words, 0)
	}
	if bit {
		g.words[g.n/wordBits] |= 1 << (uint(g.n) % wordBits)
	}
	g.n++
}

// Get reports whether bit i is set. It panics if i is out of range.
func (g *Grower) Get(i int) bool {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0, %d)", i, g.n))
	}
	return g.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// AnyAndAll reports whether the word-wise AND of all vectors in vs has
// any set bit, with early exit per word. Vectors shorter than the
// maximum length are treated as zero-extended; callers keep Growers in
// lock-step by appending one bit per event to each, so in practice all
// lengths match. AnyAndAll of an empty slice is false.
func AnyAndAll(vs []*Grower) bool {
	if len(vs) == 0 {
		return false
	}
	nWords := len(vs[0].words)
	for _, v := range vs[1:] {
		if len(v.words) < nWords {
			nWords = len(v.words)
		}
	}
	for i := 0; i < nWords; i++ {
		w := vs[0].words[i]
		for _, v := range vs[1:] {
			w &= v.words[i]
			if w == 0 {
				break
			}
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyAndAllOr reports whether AND over j of (a[j] ∨ b[j]) has any set
// bit, with early exit per word; a and b must have equal lengths
// pairwise. It implements the "dominated by MUPs" probe of Appendix B,
// where a[j] is the wildcard vector of attribute j and b[j] the vector
// of the probed value (or nil to use a[j] alone).
func AnyAndAllOr(a, b []*Grower) bool {
	if len(a) == 0 {
		return false
	}
	if len(b) != len(a) {
		panic("bitvec: AnyAndAllOr requires parallel slices")
	}
	nWords := -1
	for j := range a {
		w := len(a[j].words)
		if b[j] != nil && len(b[j].words) < w {
			w = len(b[j].words)
		}
		if nWords < 0 || w < nWords {
			nWords = w
		}
	}
	for i := 0; i < nWords; i++ {
		w := ^uint64(0)
		for j := range a {
			wj := a[j].words[i]
			if b[j] != nil {
				wj |= b[j].words[i]
			}
			w &= wj
			if w == 0 {
				break
			}
		}
		if w != 0 {
			return true
		}
	}
	return false
}
