package enhance

import (
	"fmt"

	"coverage/internal/pattern"
)

// Objective selects which uncovered patterns a remediation plan must
// hit: every uncovered pattern at level ≤ MaxLevel (Appendix C), or
// every uncovered pattern matched by at least MinValueCount value
// combinations (Definition 7). Exactly one field must be set.
type Objective struct {
	MaxLevel      int
	MinValueCount uint64
}

// Validate checks that exactly one objective is selected and in range.
func (o Objective) Validate(cards []int) error {
	switch {
	case o.MaxLevel > 0 && o.MinValueCount > 0:
		return fmt.Errorf("enhance: set either MaxLevel or MinValueCount, not both")
	case o.MaxLevel > 0:
		if o.MaxLevel > len(cards) {
			return fmt.Errorf("enhance: level %d out of range [0, %d]", o.MaxLevel, len(cards))
		}
		return nil
	case o.MinValueCount > 0:
		return nil
	default:
		return fmt.Errorf("enhance: a positive MaxLevel or MinValueCount is required")
	}
}

// TargetSet is the set of hitting-set targets one objective selects
// from a MUP set: UncoveredAtLevel or UncoveredByValueCount of the
// MUPs, less the patterns whose every match the validation oracle
// rules out — those are not material (§IV). It is immutable, so
// concurrent readers may share it.
type TargetSet struct {
	targets []pattern.Pattern
}

// NewTargetSet validates the objective and expands the MUP set's
// targets under it. It is the planners' one target expansion: the
// one-shot path and the engine's cached planner both call it.
func NewTargetSet(mups []pattern.Pattern, cards []int, obj Objective, oracle *Oracle) (*TargetSet, error) {
	if err := obj.Validate(cards); err != nil {
		return nil, err
	}
	var targets []pattern.Pattern
	var err error
	if obj.MaxLevel > 0 {
		targets, err = UncoveredAtLevel(mups, cards, obj.MaxLevel)
	} else {
		targets, err = UncoveredByValueCount(mups, cards, obj.MinValueCount)
	}
	if err != nil {
		return nil, err
	}
	if oracle != nil {
		kept := targets[:0]
		for _, p := range targets {
			if oracle.AllowPattern(p) {
				kept = append(kept, p)
			}
		}
		targets = kept
	}
	return &TargetSet{targets: targets}, nil
}

// Targets returns the targets sorted by (level, key), the order the
// expanders produce. Callers must not modify the slice.
func (ts *TargetSet) Targets() []pattern.Pattern { return ts.targets }
