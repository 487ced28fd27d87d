package index

import "coverage/internal/pattern"

// Dense-table budgets. CubeMaxBytes bounds every dense table a MUP
// search or repair allocates for the length of one call (package mup:
// the pattern cube and the ancestor cube). A marginal table stays
// resident as long as its index, so it gets an eighth of that for its
// cells and offsets, and its one build at most marginalMaxAdds cell
// adds, NumDistinct per attribute subset it holds.
const (
	CubeMaxBytes     = 8 << 20
	marginalMaxBytes = CubeMaxBytes / 8
	marginalMaxAdds  = 1 << 24
	marginalMaxLevel = 3
)

// marginal is an index's marginal table: cov(P) of every pattern P
// with at most level fixed attributes, one int64 cell per (subset S of
// attribute positions, value assignment on S). Subsets are laid out by
// size, and within a size in colex order of their sorted positions
// (i < j < k ranks C(k,3) + C(j,2) + i), so a build that nests its
// loops k, j, i visits them in storage order. Within a subset the
// cells are mixed radix over S's values, the highest position most
// significant: {i < j < k} stores v at ((v_k·c_j) + v_j)·c_i + v_i.
type marginal struct {
	level int
	cards []int
	// offs[s] is the first cell of subset s; subsets of size 2 start at
	// s = d and those of size 3 at base3 = d + C(d,2).
	offs  []int32
	base3 int
	cells []int64
}

// marginalLevel returns the largest level ℓ ≤ min(3, d) whose table
// fits both budgets, or 0 when not even level 1 does. The table of
// level ℓ holds Σ_{|S|≤ℓ} ∏_{i∈S} cᵢ cells and Σ_{k≤ℓ} C(d,k) offsets,
// and its build adds each of nDist combinations to one cell per
// subset.
func marginalLevel(cards []int, nDist int) int {
	// e[k] is the elementary symmetric sum Σ_{|S|=k} ∏ cᵢ, n[k] = C(d,k).
	var e, n [marginalMaxLevel + 1]int64
	e[0], n[0] = 1, 1
	for _, c := range cards {
		for k := marginalMaxLevel; k > 0; k-- {
			e[k] += e[k-1] * int64(c)
			n[k] += n[k-1]
		}
	}
	level := 0
	var cells, subsets int64
	for k := 1; k <= min(marginalMaxLevel, len(cards)); k++ {
		cells, subsets = cells+e[k], subsets+n[k]
		if 8*cells+4*subsets > marginalMaxBytes || int64(nDist)*subsets > marginalMaxAdds {
			break
		}
		level = k
	}
	return level
}

// buildMarginal builds ix's table of the given level (1 to 3). Each
// key is unpacked once, into one column of value codes per attribute;
// then every subset's cells are filled in storage order, one pass over
// the columns per subset. A pair's codes are kept while the triples
// that extend it downwards take their passes, so a triple's pass reads
// two columns: the pair codes and its lowest attribute's.
func buildMarginal(ix *Index, level int) *marginal {
	cards := ix.cards
	d := len(cards)
	m := &marginal{level: level, cards: cards, base3: d + d*(d-1)/2}
	var size int32
	for k := 0; k < d; k++ {
		m.offs = append(m.offs, size)
		size += int32(cards[k])
	}
	if level >= 2 {
		for k := 0; k < d; k++ {
			for j := 0; j < k; j++ {
				m.offs = append(m.offs, size)
				size += int32(cards[k] * cards[j])
			}
		}
	}
	if level >= 3 {
		for k := 0; k < d; k++ {
			for j := 0; j < k; j++ {
				for i := 0; i < j; i++ {
					m.offs = append(m.offs, size)
					size += int32(cards[k] * cards[j] * cards[i])
				}
			}
		}
	}
	m.cells = make([]int64, size)

	n := ix.flat.Len()
	cols := make([][]uint8, d)
	backing := make([]uint8, d*n)
	for i := range cols {
		cols[i] = backing[i*n : (i+1)*n]
	}
	counts := make([]int64, 0, n)
	u := make([]uint8, 0, d)
	ix.flat.Range(func(key pattern.PackedKey, c int64) {
		x := len(counts)
		for i, v := range ix.codec.AppendUnpack(u[:0], key) {
			cols[i][x] = v
		}
		counts = append(counts, c)
	})
	// subset returns the cells of subset s, which has size cells.
	subset := func(s, size int) []int64 { return m.cells[m.offs[s]:][:size] }
	for i, col := range cols {
		cells := subset(i, cards[i])
		for x, v := range col {
			cells[v] += counts[x]
		}
	}
	if level < 2 {
		return m
	}
	pair := make([]uint16, n) // pair codes: at most 254² < 2¹⁶
	s2, s3 := d, m.base3
	for k := 1; k < d; k++ {
		for j := 0; j < k; j++ {
			cj, colK, colJ := cards[j], cols[k], cols[j]
			cells := subset(s2, cards[k]*cj)
			for x, c := range counts {
				b := int(colK[x])*cj + int(colJ[x])
				pair[x] = uint16(b)
				cells[b] += c
			}
			s2++
			if level < 3 {
				continue
			}
			for i := 0; i < j; i++ {
				ci, colI := cards[i], cols[i]
				cells := subset(s3, cards[k]*cj*ci)
				for x, c := range counts {
					cells[int(pair[x])*ci+int(colI[x])] += c
				}
				s3++
			}
		}
	}
	return m
}

// at returns the cell of p, whose fixed positions det (ascending, at
// most m.level of them) name its subset.
func (m *marginal) at(p pattern.Pattern, det []int) int64 {
	c := m.cards
	switch len(det) {
	case 1:
		i := det[0]
		return m.cells[int(m.offs[i])+int(p[i])]
	case 2:
		i, j := det[0], det[1]
		s := len(c) + j*(j-1)/2 + i
		return m.cells[int(m.offs[s])+int(p[j])*c[i]+int(p[i])]
	default:
		i, j, k := det[0], det[1], det[2]
		s := m.base3 + k*(k-1)*(k-2)/6 + j*(j-1)/2 + i
		return m.cells[int(m.offs[s])+(int(p[k])*c[j]+int(p[j]))*c[i]+int(p[i])]
	}
}

// bytes is the table's resident footprint: its cells and offsets.
func (m *marginal) bytes() int64 {
	return 8*int64(len(m.cells)) + 4*int64(len(m.offs))
}

// ensureMarginal builds and publishes the index's marginal table on
// the first call; later and concurrent calls return at once, the
// concurrent ones while the build is still running (their probes take
// the kernel until the table is published). An index whose shape no
// level fits never gets one.
func (ix *Index) ensureMarginal() {
	if ix.margClaimed.Load() || !ix.margClaimed.CompareAndSwap(false, true) {
		return
	}
	if level := marginalLevel(ix.cards, ix.nDist); level > 0 {
		ix.marg.Store(buildMarginal(ix, level))
	}
}

// MarginalBytes returns the resident bytes of the index's marginal
// table (cells × 8 plus offsets × 4), or 0 while it has none.
func (ix *Index) MarginalBytes() int64 {
	if m := ix.marg.Load(); m != nil {
		return m.bytes()
	}
	return 0
}
