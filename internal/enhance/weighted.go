package enhance

import (
	"fmt"
	"strconv"

	"coverage/internal/pattern"
)

// CostModel assigns additive acquisition costs to value combinations:
// the cost of collecting a tuple is the sum of its per-attribute-value
// costs. It models the paper's §IV observation that acquisition has
// real costs (collection, integration, cleaning) that differ between
// subpopulations — e.g. recruiting respondents from a rare demographic
// costs more than from a common one.
type CostModel struct {
	costs [][]float64 // [attribute][value]
	// sufMin[i] is the cheapest possible completion of attributes
	// i..d-1, used as the branch-and-bound lower bound.
	sufMin []float64
}

// NewCostModel validates per-attribute-value costs (all strictly
// positive; shape must match the cardinalities).
func NewCostModel(cards []int, costs [][]float64) (*CostModel, error) {
	if len(costs) != len(cards) {
		return nil, fmt.Errorf("enhance: cost model has %d attributes, schema has %d", len(costs), len(cards))
	}
	m := &CostModel{costs: make([][]float64, len(cards)), sufMin: make([]float64, len(cards)+1)}
	for i, c := range cards {
		if len(costs[i]) != c {
			return nil, fmt.Errorf("enhance: attribute %d has %d costs for %d values", i, len(costs[i]), c)
		}
		for v, x := range costs[i] {
			if x <= 0 {
				return nil, fmt.Errorf("enhance: cost of attribute %d value %d is %v; costs must be positive", i, v, x)
			}
		}
		m.costs[i] = append([]float64(nil), costs[i]...)
	}
	for i := len(cards) - 1; i >= 0; i-- {
		min := m.costs[i][0]
		for _, x := range m.costs[i][1:] {
			if x < min {
				min = x
			}
		}
		m.sufMin[i] = m.sufMin[i+1] + min
	}
	return m, nil
}

// UniformCost returns the model where every value costs 1, making
// GreedyWeighted equivalent to the unweighted Greedy objective.
func UniformCost(cards []int) *CostModel {
	costs := make([][]float64, len(cards))
	for i, c := range cards {
		costs[i] = make([]float64, c)
		for v := range costs[i] {
			costs[i][v] = 1
		}
	}
	m, err := NewCostModel(cards, costs)
	if err != nil {
		panic(err) // uniform costs are always valid
	}
	return m
}

// Fingerprint returns a deterministic encoding of the model's cost
// table, usable as a cache key: two models with equal fingerprints
// cost every combination identically. A nil model fingerprints to "".
func (m *CostModel) Fingerprint() string {
	if m == nil {
		return ""
	}
	var b []byte
	for _, row := range m.costs {
		b = append(b, 'a')
		for _, x := range row {
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
			b = append(b, ',')
		}
	}
	return string(b)
}

// ComboCost returns the acquisition cost of one value combination.
func (m *CostModel) ComboCost(combo []uint8) float64 {
	var c float64
	for i, v := range combo {
		c += m.costs[i][v]
	}
	return c
}

// GreedyWeighted is the weighted-greedy variant of the hitting-set
// planner: each iteration selects the valid value combination
// maximizing newly-hit-patterns per unit cost (the classic weighted
// set-cover greedy, still logarithmically approximate). The tree
// search prunes with the bound hits/(cost-so-far + cheapest
// completion), which dominates every leaf ratio in the subtree.
//
// GreedyWeighted runs without a context; GreedyWeightedSearch adds
// cancellation without changing the resulting plan.
func GreedyWeighted(targets []pattern.Pattern, cards []int, oracle *Oracle, cost *CostModel) (*Plan, error) {
	return GreedyWeightedSearch(targets, cards, oracle, cost, SearchOptions{})
}
