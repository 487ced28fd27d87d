package enhance

import (
	"fmt"

	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// Suggestion is one value combination to collect, with the set of
// target patterns it resolves and the generalized collection pattern
// (§IV-B implementation note: the intersection of the hit patterns,
// giving the data collector freedom — any combination matching it hits
// the same targets).
type Suggestion struct {
	// Combo is the concrete value combination the greedy algorithm
	// selected.
	Combo []uint8
	// Collect generalizes Combo: every combination matching it hits
	// the same target patterns.
	Collect pattern.Pattern
	// Hits indexes the targets this suggestion newly resolves.
	Hits []int
	// Cost is the acquisition cost under the planner's cost model
	// (zero for the unweighted planners).
	Cost float64
}

// PlanStats records the work the planner performed.
type PlanStats struct {
	Algorithm  string
	Iterations int // greedy selections made
	// NodesExplored counts the tree nodes (or, naive, combinations)
	// examined; 0 for a plan restored from a snapshot.
	NodesExplored int64
}

// Plan is the output of the coverage-enhancement planner: the target
// patterns and the value combinations to collect, in selection order.
type Plan struct {
	Targets     []pattern.Pattern
	Suggestions []Suggestion
	Stats       PlanStats
}

// NumTuples returns the number of value combinations to collect.
func (p *Plan) NumTuples() int { return len(p.Suggestions) }

// TotalCost returns the summed acquisition cost of the suggestions
// (zero when the plan was computed without a cost model).
func (p *Plan) TotalCost() float64 {
	var c float64
	for _, s := range p.Suggestions {
		c += s.Cost
	}
	return c
}

// Apply appends copies of every suggested combination to ds — the
// simulated "additional data collection". Collecting τ copies of each
// suggestion lifts every hit pattern to the coverage threshold.
func (p *Plan) Apply(ds *dataset.Dataset, copies int) error {
	if copies < 1 {
		return fmt.Errorf("enhance: copies must be positive, got %d", copies)
	}
	ds.Grow(copies * len(p.Suggestions))
	for _, s := range p.Suggestions {
		for c := 0; c < copies; c++ {
			if err := ds.Append(s.Combo); err != nil {
				return fmt.Errorf("enhance: applying plan: %w", err)
			}
		}
	}
	return nil
}

// verifyPlanCoversAll double-checks that every target is hit by some
// suggestion; it is cheap and always run before returning a plan.
func verifyPlanCoversAll(p *Plan) error {
	hit := make([]bool, len(p.Targets))
	for _, s := range p.Suggestions {
		for _, i := range s.Hits {
			hit[i] = true
		}
	}
	for i, ok := range hit {
		if !ok {
			return fmt.Errorf("enhance: internal error: target %v left unhit", p.Targets[i])
		}
	}
	return nil
}

// generalize computes the collection pattern for a combo and the
// targets it hits: wildcard wherever every hit target is wildcard,
// the combo's value elsewhere.
func generalize(combo []uint8, targets []pattern.Pattern, hits []int) pattern.Pattern {
	q := pattern.FromValues(combo)
	for i := range combo {
		allWild := true
		for _, h := range hits {
			if targets[h][i] != pattern.Wildcard {
				allWild = false
				break
			}
		}
		if allWild {
			q[i] = pattern.Wildcard
		}
	}
	return q
}
