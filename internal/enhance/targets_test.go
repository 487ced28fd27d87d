package enhance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coverage/internal/pattern"
)

// randomMUPSet generates a deduplicated random pattern set standing in
// for a MUP frontier.
func randomMUPSet(r *rand.Rand, cards []int, n int) []pattern.Pattern {
	seen := make(map[string]bool)
	var out []pattern.Pattern
	for k := 0; k < n; k++ {
		p := make(pattern.Pattern, len(cards))
		for i := range p {
			if r.Intn(2) == 0 {
				p[i] = pattern.Wildcard
			} else {
				p[i] = uint8(r.Intn(cards[i]))
			}
		}
		if !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}

func assertSameTargets(t *testing.T, label string, want, got []pattern.Pattern) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d targets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("%s: target %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestTargetSetMatchesOneShot pins NewTargetSet to its definition: it
// holds exactly what the expander of the objective produces, less the
// patterns the oracle rules out, in the same order, for both
// objectives.
func TestTargetSetMatchesOneShot(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 3 + r.Intn(3)
		cards := make([]int, d)
		for i := range cards {
			cards[i] = 2 + r.Intn(3)
		}
		mups := randomMUPSet(r, cards, 1+r.Intn(10))
		var oracle *Oracle
		if r.Intn(2) == 0 {
			var err error
			oracle, err = NewOracle(cards, []Rule{
				{Conditions: []Condition{{Attr: 0, Values: []uint8{0}}, {Attr: 1, Values: []uint8{1}}}},
			})
			if err != nil {
				t.Log(err)
				return false
			}
		}
		filter := func(ps []pattern.Pattern) []pattern.Pattern {
			var kept []pattern.Pattern
			for _, p := range ps {
				if oracle.AllowPattern(p) {
					kept = append(kept, p)
				}
			}
			return kept
		}

		lambda := 1 + r.Intn(d)
		want, err := UncoveredAtLevel(mups, cards, lambda)
		if err != nil {
			t.Log(err)
			return false
		}
		ts, err := NewTargetSet(mups, cards, Objective{MaxLevel: lambda}, oracle)
		if err != nil {
			t.Log(err)
			return false
		}
		assertSameTargets(t, "max-level", filter(want), ts.Targets())

		minVC := uint64(1 + r.Intn(8))
		wantVC, err := UncoveredByValueCount(mups, cards, minVC)
		if err != nil {
			t.Log(err)
			return false
		}
		tsVC, err := NewTargetSet(mups, cards, Objective{MinValueCount: minVC}, oracle)
		if err != nil {
			t.Log(err)
			return false
		}
		assertSameTargets(t, "value-count", filter(wantVC), tsVC.Targets())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestObjectiveValidation(t *testing.T) {
	cards := []int{2, 2}
	for _, tc := range []struct {
		name string
		obj  Objective
		ok   bool
	}{
		{"both", Objective{MaxLevel: 1, MinValueCount: 2}, false},
		{"neither", Objective{}, false},
		{"level too deep", Objective{MaxLevel: 3}, false},
		{"level", Objective{MaxLevel: 2}, true},
		{"value count", Objective{MinValueCount: 2}, true},
	} {
		if err := tc.obj.Validate(cards); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestOracleAndCostFingerprints(t *testing.T) {
	cards := []int{2, 3}
	var nilO *Oracle
	if nilO.Fingerprint() != "" {
		t.Error("nil oracle fingerprint not empty")
	}
	o1, _ := NewOracle(cards, []Rule{{Conditions: []Condition{{Attr: 0, Values: []uint8{1}}}}})
	o2, _ := NewOracle(cards, []Rule{{Conditions: []Condition{{Attr: 0, Values: []uint8{1}}}}})
	o3, _ := NewOracle(cards, []Rule{{Conditions: []Condition{{Attr: 1, Values: []uint8{1}}}}})
	if o1.Fingerprint() != o2.Fingerprint() {
		t.Error("equal rule sets fingerprint differently")
	}
	if o1.Fingerprint() == o3.Fingerprint() {
		t.Error("different rule sets share a fingerprint")
	}
	var nilC *CostModel
	if nilC.Fingerprint() != "" {
		t.Error("nil cost model fingerprint not empty")
	}
	c1 := UniformCost(cards)
	c2 := UniformCost(cards)
	c3, _ := NewCostModel(cards, [][]float64{{1, 2}, {1, 1, 1}})
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Error("equal cost models fingerprint differently")
	}
	if c1.Fingerprint() == c3.Fingerprint() {
		t.Error("different cost models share a fingerprint")
	}
}
