package mup

import (
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// PatternBreaker implements the top-down algorithm of §III-C
// (Algorithm 1). It walks the pattern graph level by level from the
// all-wildcard root, generating each candidate exactly once through
// Rule 1, probing coverage only for candidates all of whose parents
// are covered, and never descending below an uncovered pattern.
//
// PatternBreaker is fastest when the MUPs sit high in the graph
// (large thresholds); its cost is proportional to the covered region
// it must cross.
func PatternBreaker(ix index.Oracle, opts Options) (*Result, error) {
	cards := ix.Cards()
	key := pattern.NewCodec(cards).PackedKey
	d := len(cards)
	res := &Result{Stats: Stats{Algorithm: "pattern-breaker"}, Cov: []int64{}}
	pr := ix.NewCoverageProber()
	bound := opts.levelBound(d)

	queue := []pattern.Pattern{pattern.All(d)}
	// covered holds the keys of the covered candidates of the previous
	// level. A candidate is processed only if every parent is in it:
	// candidates are generated exclusively by covered Rule-1 parents,
	// and all covered patterns of a level are guaranteed to have been
	// generated (every ancestor of a covered pattern is covered), so
	// membership in covered is exactly "parent covered".
	covered := make(map[pattern.PackedKey]struct{})
	var live []pattern.Pattern
	var covs []int64

	for level := 0; level <= bound && len(queue) > 0; level++ {
		var next []pattern.Pattern
		coveredNow := make(map[pattern.PackedKey]struct{})
		// Pass 1: parent checks, no probes. A candidate with an
		// uncovered parent is dominated by an uncovered pattern: it is
		// uncovered but not maximal, and its subtree holds no MUPs
		// either.
		live = live[:0]
		for _, p := range queue {
			res.Stats.NodesVisited++
			// Check every parent by flipping one deterministic element
			// to a wildcard in place.
			allParentsCovered := true
			for i, v := range p {
				if v == pattern.Wildcard {
					continue
				}
				p[i] = pattern.Wildcard
				_, ok := covered[key(p)]
				p[i] = v
				if !ok {
					allParentsCovered = false
					break
				}
			}
			if allParentsCovered {
				live = append(live, p)
			}
		}
		// One merged probe for the whole level: a batching prober (the
		// sharded fan-out) walks its partitions shard-major over the
		// candidate list instead of fanning out once per candidate.
		if cap(covs) < len(live) {
			covs = make([]int64, len(live))
		}
		covs = covs[:len(live)]
		index.CoverageAll(pr, live, covs)
		// Pass 2: classify.
		for i, p := range live {
			if c := covs[i]; c < opts.Threshold {
				res.MUPs = append(res.MUPs, p)
				res.Cov = append(res.Cov, c)
				continue
			}
			coveredNow[key(p)] = struct{}{}
			if level < bound {
				next = p.AppendRule1Children(next, cards)
			}
		}
		covered = coveredNow
		queue = next
	}
	res.Stats.CoverageProbes = pr.Probes()
	sortResult(res)
	return res, nil
}
