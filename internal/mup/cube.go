package mup

import (
	"math"

	"coverage/internal/index"
	"coverage/internal/pattern"
)

// cubeMaxBytes bounds every dense table a search or repair allocates:
// the pattern cube of a cold Search (∏(cᵢ+1) uint32 cells, so at most
// 2²¹ of them) and the per-worker ancestor cube of RepairBidirectional
// (2^d int64 cells, so d ≤ 20). Past it the lattice walks run instead.
// It is kept in package index beside the marginal table's budgets.
const cubeMaxBytes = index.CubeMaxBytes

// cubeCells returns the pattern cube's cell count ∏(cᵢ+1), or 0 when
// the cube would exceed cubeMaxBytes.
func cubeCells(cards []int) int {
	cells := 1
	for _, c := range cards {
		cells *= c + 1
		if cells > cubeMaxBytes/4 {
			return 0
		}
	}
	return cells
}

// ancestorCubeFits reports whether RepairBidirectional's per-worker
// ancestor cube of 2^d int64 cells fits in cubeMaxBytes.
func ancestorCubeFits(d int) bool {
	return d < 32 && 8<<d <= cubeMaxBytes
}

// Search is the cold MUP search: the complete MUP set with every MUP's
// coverage, by whichever path the input's own shape makes cheapest.
//
//   - τ ≤ 0 covers every pattern: the set is empty.
//   - τ > Total() leaves the root uncovered, and the root has no parents:
//     the set is the root alone.
//   - A lattice of ∏(cᵢ+1) ≤ 2²¹ patterns (cubeMaxBytes of uint32
//     cells), over at most MaxUint32 rows, is read off the pattern cube
//     with no coverage probe.
//   - Anything wider runs ParallelPatternBreaker, the paper's walk.
//
// The dispatch reads nothing but the cardinalities, τ and Total(); the
// result is identical on every path.
func Search(ix index.Oracle, popts ParallelOptions) (*Result, error) {
	tau, total := popts.Threshold, ix.Total()
	switch {
	case tau <= 0:
		return &Result{Stats: Stats{Algorithm: "all-covered"}, Cov: []int64{}}, nil
	case tau > total:
		return &Result{
			MUPs:  []pattern.Pattern{pattern.All(len(ix.Cards()))},
			Cov:   []int64{total},
			Stats: Stats{Algorithm: "uncovered-root", NodesVisited: 1},
		}, nil
	}
	if cells := cubeCells(ix.Cards()); cells > 0 && total <= math.MaxUint32 {
		// At least 64 Ki cells per worker: a small cube is not worth a
		// goroutine.
		return patternCube(ix, cells, popts.Options, max(1, min(popts.workers(), cells>>16))), nil
	}
	return ParallelPatternBreaker(ix, popts)
}

// patternCube computes the MUPs from a table of cov(P) for every
// pattern P of the graph. The table is mixed radix over the attributes,
// attribute 0 the most significant digit, and digit cᵢ of attribute i
// stands for the wildcard:
//
//  1. each distinct combination adds its multiplicity at its own cell;
//  2. for each attribute in turn, the cᵢ value slices are summed into
//     the wildcard slice, after which every cell holds its pattern's
//     coverage (d·∏(cᵢ+1) adds, chunked across the workers);
//  3. a cell below τ, at level ≤ the bound, whose parents — the cells
//     with one value digit raised to the wildcard — are all at least τ
//     is a MUP by definition.
//
// Every cell is at most Total(), which the caller has checked fits a
// uint32, and 0 < τ ≤ Total(). Wildcard is the largest byte as cᵢ is
// the largest digit, so cell order is pattern key order: collecting
// each level's MUPs in cell order yields the canonical (level, key)
// order without a sort. The cells are split across workers goroutines.
func patternCube(ix index.Oracle, cells int, opts Options, workers int) *Result {
	cards := ix.Cards()
	d := len(cards)
	tau := uint32(opts.Threshold)
	bound := opts.levelBound(d)
	stride := make([]int, d)
	for i, s := d-1, 1; i >= 0; i-- {
		stride[i] = s
		s *= cards[i] + 1
	}

	cube := make([]uint32, cells)
	ix.Range(func(combo []uint8, count int64) {
		cell := 0
		for i := range stride {
			cell += int(combo[i]) * stride[i]
		}
		cube[cell] += uint32(count)
	})

	// Zero-size elements: runChunks splits the index range without any
	// backing array being allocated.
	for i, st := range stride {
		c := cards[i]
		block := st * (c + 1)
		runChunks(make([]struct{}, cells/(c+1)), workers, func(_ int, part []struct{}, lo int) {
			// Line k is offset k%st of the k/st-th block; a chunk covers
			// runs of consecutive lines, each to the end of its block
			// but the last.
			o, t := lo/st, lo%st
			for k, hi := lo, lo+len(part); k < hi; o, t = o+1, 0 {
				n := min(hi-k, st-t)
				base := o*block + t
				dst := cube[base+c*st : base+c*st+n]
				for v := 0; v < c; v++ {
					for j, x := range cube[base+v*st : base+v*st+n] {
						dst[j] += x
					}
				}
				k += n
			}
		})
	}

	// byLevel[w][l] holds worker w's MUP cells at level l, in cell order.
	byLevel := make([][][]uint32, workers)
	for w := range byLevel {
		byLevel[w] = make([][]uint32, bound+1)
	}
	runChunks(make([]struct{}, cells), workers, func(w int, part []struct{}, lo int) {
		found := byLevel[w]
		// Odometer over the chunk's cells: the digits of the current
		// cell and its level (the count of non-wildcard digits).
		digits := make([]int, d)
		level := 0
		for i, rest := d-1, lo; i >= 0; i-- {
			digits[i] = rest % (cards[i] + 1)
			rest /= cards[i] + 1
			if digits[i] != cards[i] {
				level++
			}
		}
		for idx, hi := lo, lo+len(part); idx < hi; idx++ {
			if cube[idx] < tau && level <= bound {
				maximal := true
				for i, v := range digits {
					if v != cards[i] && cube[idx+(cards[i]-v)*stride[i]] < tau {
						maximal = false // an uncovered parent
						break
					}
				}
				if maximal {
					found[level] = append(found[level], uint32(idx))
				}
			}
			for i := d - 1; i >= 0; i-- {
				digits[i]++
				if digits[i] < cards[i] {
					break
				}
				if digits[i] == cards[i] {
					level-- // a value digit became the wildcard
					break
				}
				digits[i] = 0 // the wildcard wraps to value 0 and carries
				level++
			}
		}
	})

	res := &Result{Stats: Stats{Algorithm: "pattern-cube", NodesVisited: int64(cells)}}
	n := 0
	for _, found := range byLevel {
		for _, l := range found {
			n += len(l)
		}
	}
	res.MUPs = make([]pattern.Pattern, 0, n)
	res.Cov = make([]int64, 0, n)
	slab := make([]uint8, n*d)
	for level := 0; level <= bound; level++ {
		for _, found := range byLevel {
			for _, idx := range found[level] {
				p := pattern.Pattern(slab[:d:d])
				slab = slab[d:]
				for i, rest := d-1, int(idx); i >= 0; i-- {
					p[i] = uint8(rest % (cards[i] + 1))
					rest /= cards[i] + 1
					if int(p[i]) == cards[i] {
						p[i] = pattern.Wildcard
					}
				}
				res.MUPs = append(res.MUPs, p)
				res.Cov = append(res.Cov, int64(cube[idx]))
			}
		}
	}
	return res
}
