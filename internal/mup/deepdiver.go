package mup

import (
	"coverage/internal/index"
	"coverage/internal/mupindex"
	"coverage/internal/pattern"
)

// DeepDiver implements the dive-and-climb algorithm of §III-E
// (Algorithm 3). A DFS over the Rule-1 tree dives from the root until
// it enters an uncovered region, climbs through uncovered parents to
// the maximal uncovered pattern, and then uses the discovered MUP to
// prune both the nodes it dominates (its subtree holds no MUPs) and
// the nodes that dominate it (ancestors of a MUP are covered by
// definition, so their coverage probe can be skipped). Dominance
// checks run against the inverted MUP index of Appendix B.
//
// Note on the published pseudocode: Algorithm 3 as printed sets the
// uncovered flag when a node dominates the MUP set, but every ancestor
// of a MUP is covered (coverage is monotone upward and a MUP's parents
// are covered), so such nodes are treated as covered here — which is
// the pruning §III-E's prose describes. See DESIGN.md.
func DeepDiver(ix index.Oracle, opts Options) (*Result, error) {
	cards := ix.Cards()
	key := pattern.NewCodec(cards).PackedKey
	d := len(cards)
	res := &Result{Stats: Stats{Algorithm: "deepdiver"}}
	pr := ix.NewCoverageProber()
	bound := opts.levelBound(d)
	midx := mupindex.New(cards)

	// covCache memoizes probes: climbs inspect parents that the DFS
	// may pop again later. Every value is only compared with τ, so the
	// probes stop counting there: a cached value at or above τ is a
	// lower bound, and one below τ (every MUP's) is exact.
	covCache := make(map[pattern.PackedKey]int64)
	coverage := func(p pattern.Pattern) int64 {
		k := key(p)
		if c, ok := covCache[k]; ok {
			return c
		}
		c := pr.CoverageAtLeast(p, opts.Threshold)
		covCache[k] = c
		return c
	}

	stack := []pattern.Pattern{pattern.All(d)}
	var childBuf []pattern.Pattern
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Stats.NodesVisited++

		if midx.DominatedBy(p) {
			continue // inside a known uncovered region: no MUPs below
		}
		uncovered := false
		if !midx.Dominates(p) { // ancestors of MUPs are covered for free
			uncovered = coverage(p) < opts.Threshold
		}
		if uncovered {
			mup := climb(p, coverage, opts.Threshold)
			midx.Add(mup)
			continue
		}
		if p.Level() >= bound {
			continue
		}
		// Push in reverse so the first child is popped next,
		// preserving the depth-first dive order.
		childBuf = p.AppendRule1Children(childBuf[:0], cards)
		for i := len(childBuf) - 1; i >= 0; i-- {
			stack = append(stack, childBuf[i])
		}
	}

	res.MUPs = append(res.MUPs, midx.Patterns()...)
	// Every discovered MUP's coverage was probed (and memoized) the
	// moment the climb stopped on it, so the coverage-value cache
	// costs no extra probes.
	res.Cov = make([]int64, len(res.MUPs))
	for i, m := range res.MUPs {
		res.Cov[i] = covCache[key(m)]
	}
	res.Stats.CoverageProbes = pr.Probes()
	sortResult(res)
	return res, nil
}

// climb walks upward from the uncovered pattern p, moving to the
// first uncovered parent until none remains; the final pattern is
// uncovered with all parents covered — a MUP. Parents are generated by
// flipping one deterministic element in place.
func climb(p pattern.Pattern, coverage func(pattern.Pattern) int64, tau int64) pattern.Pattern {
	cur := p.Clone()
	for {
		moved := false
		for i, v := range cur {
			if v == pattern.Wildcard {
				continue
			}
			cur[i] = pattern.Wildcard
			if coverage(cur) < tau {
				moved = true
				break
			}
			cur[i] = v
		}
		if !moved {
			return cur
		}
	}
}
