package enhance

import (
	"fmt"

	"coverage/internal/pattern"
)

// Greedy implements the efficient greedy hitting-set algorithm of
// §IV-B (Algorithms 4 and 5). Targets are the uncovered patterns to
// hit (see UncoveredAtLevel / UncoveredByValueCount); the oracle, when
// non-nil, restricts suggestions to semantically valid combinations
// and is consulted before each child expansion of the search tree.
//
// Per attribute value, an inverted index over the targets marks the
// patterns a combination with that value can still hit (the pattern
// has a wildcard or that value there — Fig 9). Each greedy iteration
// runs a depth-first search over the attribute tree (Fig 10), carrying
// the AND of the chosen values' indices, visiting children in
// descending hit-count order and pruning branches whose upper bound
// cannot beat the best combination found so far.
//
// The bound is tighter than the paper's hit count. Two distinct
// targets with the same wildcard positions differ at a fixed one, so
// no combination hits both: a branch hits at most one target per such
// group it still matches. The index holds only the targets not hit
// yet, sorted by (wildcard positions, pattern), which makes each
// group's matches one contiguous run, so the group count costs one
// word-parallel pass. The visit order and the tie-break are the
// paper's, so the plan is the one the hit-count bound alone selects.
//
// Greedy runs without a context; GreedySearch adds cancellation
// without changing the resulting plan.
func Greedy(targets []pattern.Pattern, cards []int, oracle *Oracle) (*Plan, error) {
	return GreedySearch(targets, cards, oracle, SearchOptions{})
}

func checkTargets(targets []pattern.Pattern, cards []int) error {
	for _, p := range targets {
		if err := p.Validate(cards); err != nil {
			return fmt.Errorf("enhance: bad target: %w", err)
		}
	}
	return nil
}
