package enhance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coverage/internal/datagen"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// example2Cards are the Example 2 attributes: A1, A4, A5 binary and
// A2, A3 ternary.
var example2Cards = []int{2, 3, 3, 2, 2}

// example2MUPs parses Fig 8's MUPs P1..P7.
func example2MUPs(t testing.TB) []pattern.Pattern {
	specs := []string{"XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX", "X020X"}
	out := make([]pattern.Pattern, len(specs))
	for i, s := range specs {
		p, err := pattern.Parse(s, example2Cards)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestGreedyExample2(t *testing.T) {
	mups := example2MUPs(t)
	targets := mups[:6] // the paper's running example hits P1..P6

	plan, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's greedy run collects three value combinations.
	if plan.NumTuples() != 3 {
		t.Errorf("plan size = %d, want 3", plan.NumTuples())
	}
	// The paper's first pick, 02011, hits the maximum (3 patterns:
	// P1, P3, P4); our first pick must match that count.
	if got := len(plan.Suggestions[0].Hits); got != 3 {
		t.Errorf("first suggestion hits %d patterns, want 3", got)
	}
	// Verify the paper's worked fact directly: 02011 hits exactly
	// P1, P3, P4 among the six targets.
	combo := []uint8{0, 2, 0, 1, 1}
	var hit []int
	for j, p := range targets {
		if p.Matches(combo) {
			hit = append(hit, j)
		}
	}
	if len(hit) != 3 || hit[0] != 0 || hit[1] != 2 || hit[2] != 3 {
		t.Errorf("02011 hits targets %v, want [0 2 3] (P1, P3, P4)", hit)
	}
}

func TestGreedyAgainstNaiveExample2(t *testing.T) {
	targets := example2MUPs(t)[:6]
	g, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NaiveGreedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTuples() != n.NumTuples() {
		t.Errorf("greedy plan size %d, naive %d", g.NumTuples(), n.NumTuples())
	}
	if len(g.Suggestions[0].Hits) != len(n.Suggestions[0].Hits) {
		t.Errorf("first-pick hit count: greedy %d, naive %d", len(g.Suggestions[0].Hits), len(n.Suggestions[0].Hits))
	}
}

// TestGreedyAlwaysPicksTheMaximum checks every unweighted pick against
// the brute-force maximum, on targets that draw one wildcard mask each
// and on targets that share a few masks and duplicates.
func TestGreedyAlwaysPicksTheMaximum(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkGreedyMaximum(t, seed, false, false, false)
		checkGreedyMaximum(t, seed, false, false, true)
	}
}

func TestGeneralizedCollectPattern(t *testing.T) {
	// Every combination matching a suggestion's Collect pattern must
	// hit all the targets that suggestion resolved.
	targets := example2MUPs(t)[:6]
	plan, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range plan.Suggestions {
		if !s.Collect.Matches(s.Combo) {
			t.Errorf("suggestion %d: combo %v does not match its own Collect %v", si, s.Combo, s.Collect)
		}
		pattern.EnumerateCombos(example2Cards, func(combo []uint8) bool {
			if !s.Collect.Matches(combo) {
				return true
			}
			for _, j := range s.Hits {
				if !targets[j].Matches(combo) {
					t.Errorf("suggestion %d: combo %v matches Collect %v but misses target %v", si, combo, s.Collect, targets[j])
					return false
				}
			}
			return true
		})
	}
}

func TestUncoveredAtLevelExample2(t *testing.T) {
	mups := example2MUPs(t)
	got, err := UncoveredAtLevel(mups, example2Cards, 2)
	if err != nil {
		t.Fatal(err)
	}
	// MUPs with level ≤ 2: P3 (level 1) and P1, P4, P5 (level 2).
	// P3's level-2 descendants instantiate one of A1..A4: 2+3+3+2 = 10
	// patterns; plus the three level-2 MUPs themselves. No overlaps.
	if len(got) != 13 {
		t.Fatalf("|M_2| = %d, want 13: %v", len(got), got)
	}
	for _, p := range got {
		if p.Level() != 2 {
			t.Errorf("target %v has level %d, want 2", p, p.Level())
		}
		dominated := false
		for _, m := range mups {
			if m.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("target %v is not dominated by any MUP", p)
		}
	}
}

func TestUncoveredAtLevelAppendixC(t *testing.T) {
	// Appendix C: 1X11X (level 3, child of P5=XX11X) remains uncovered
	// even after the MUPs themselves are hit, so it must appear among
	// the level-3 targets.
	mups := example2MUPs(t)
	got, err := UncoveredAtLevel(mups, example2Cards, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pattern.Parse("1X11X", example2Cards)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range got {
		if p.Equal(want) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("level-3 targets do not include 1X11X; got %d targets", len(got))
	}
}

func TestUncoveredAtLevelZero(t *testing.T) {
	// λ = 0 with an uncovered root: the single target is the root
	// pattern, and any one combination resolves it.
	root := pattern.All(3)
	cards := []int{2, 2, 2}
	targets, err := UncoveredAtLevel([]pattern.Pattern{root}, cards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0].Level() != 0 {
		t.Fatalf("targets = %v", targets)
	}
	plan, err := Greedy(targets, cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumTuples() != 1 {
		t.Errorf("plan size = %d, want 1", plan.NumTuples())
	}
}

func TestUncoveredAtLevelBounds(t *testing.T) {
	mups := example2MUPs(t)
	if _, err := UncoveredAtLevel(mups, example2Cards, -1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := UncoveredAtLevel(mups, example2Cards, 6); err == nil {
		t.Error("level beyond dimension accepted")
	}
	got, err := UncoveredAtLevel(nil, example2Cards, 2)
	if err != nil || len(got) != 0 {
		t.Errorf("no MUPs should mean no targets: %v, %v", got, err)
	}
}

func TestUncoveredAtLevelRefusesCombinatorialExpansion(t *testing.T) {
	// A single general MUP over a wide schema would expand to an
	// astronomical number of targets; the guard must fire before any
	// materialization (this test would OOM otherwise).
	cards := make([]int, 40)
	for i := range cards {
		cards[i] = 2
	}
	root := pattern.All(40)
	if _, err := UncoveredAtLevel([]pattern.Pattern{root}, cards, 20); err == nil {
		t.Error("combinatorial expansion accepted")
	}
}

func TestUncoveredByValueCount(t *testing.T) {
	mups := example2MUPs(t)
	// Total combination space is 2·3·3·2·2 = 72. Value counts:
	// P3=XXXX1 has 36; the level-2 MUPs have 12 or 18; level-3 have ≤ 6.
	got, err := UncoveredByValueCount(mups, example2Cards, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force reference: every pattern dominated by some MUP with
	// value count ≥ 12.
	want := 0
	pattern.EnumerateAll(example2Cards, func(p pattern.Pattern) bool {
		if p.ValueCount(example2Cards) < 12 {
			return true
		}
		for _, m := range mups {
			if m.Dominates(p) {
				want++
				break
			}
		}
		return true
	})
	if len(got) != want {
		t.Errorf("|targets| = %d, want %d", len(got), want)
	}
	for _, p := range got {
		if p.ValueCount(example2Cards) < 12 {
			t.Errorf("target %v has value count %d < 12", p, p.ValueCount(example2Cards))
		}
	}
	if _, err := UncoveredByValueCount(mups, example2Cards, 0); err == nil {
		t.Error("zero minimum value count accepted")
	}
}

func TestOracleValidation(t *testing.T) {
	cards := []int{2, 2, 3}
	bad := []struct {
		name  string
		rules []Rule
	}{
		{"no conditions", []Rule{{}}},
		{"bad attribute", []Rule{{Conditions: []Condition{{Attr: 5, Values: []uint8{0}}}}}},
		{"repeated attribute", []Rule{{Conditions: []Condition{{Attr: 0, Values: []uint8{0}}, {Attr: 0, Values: []uint8{1}}}}}},
		{"empty values", []Rule{{Conditions: []Condition{{Attr: 0, Values: nil}}}}},
		{"value too large", []Rule{{Conditions: []Condition{{Attr: 2, Values: []uint8{3}}}}}},
	}
	for _, tc := range bad {
		if _, err := NewOracle(cards, tc.rules); err == nil {
			t.Errorf("%s: NewOracle succeeded, want error", tc.name)
		}
	}
}

func TestOracleSemantics(t *testing.T) {
	// The paper's example: {gender=male, isPregnant=true} is invalid.
	cards := []int{2, 2} // gender, isPregnant
	o, err := NewOracle(cards, []Rule{
		{Conditions: []Condition{{Attr: 0, Values: []uint8{0}}, {Attr: 1, Values: []uint8{1}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.AllowCombo([]uint8{0, 1}) {
		t.Error("male+pregnant accepted")
	}
	for _, c := range [][]uint8{{0, 0}, {1, 0}, {1, 1}} {
		if !o.AllowCombo(c) {
			t.Errorf("valid combo %v rejected", c)
		}
	}
	// Prefix: after assigning only gender=male, the rule is not yet
	// determined, so the prefix must still be allowed.
	if !o.AllowPrefix([]uint8{0, 0}, 1) {
		t.Error("prefix [male] rejected before the rule is determined")
	}
	if o.AllowPrefix([]uint8{0, 1}, 2) {
		t.Error("fully determined invalid prefix accepted")
	}
	// Patterns: a pattern whose deterministic part satisfies the rule
	// describes no valid combination.
	p, _ := pattern.Parse("01", cards)
	if o.AllowPattern(p) {
		t.Error("pattern 01 accepted")
	}
	q, _ := pattern.Parse("0X", cards)
	if !o.AllowPattern(q) {
		t.Error("pattern 0X rejected (it matches the valid combo 00)")
	}
	// A nil oracle accepts everything.
	var nilO *Oracle
	if !nilO.AllowCombo([]uint8{0, 1}) || !nilO.AllowPrefix([]uint8{0, 1}, 2) || !nilO.AllowPattern(p) {
		t.Error("nil oracle rejected something")
	}
}

func TestGreedyRespectsOracle(t *testing.T) {
	targets := example2MUPs(t)[:6]
	// Forbid A1=0 entirely: suggestions must all have A1=1.
	o, err := NewOracle(example2Cards, []Rule{
		{Conditions: []Condition{{Attr: 0, Values: []uint8{0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// P4 = 02XXX requires A1=0, so it becomes unhittable: error.
	if _, err := Greedy(targets, example2Cards, o); err == nil {
		t.Error("Greedy succeeded although P4 is unhittable under the oracle")
	}
	if _, err := NaiveGreedy(targets, example2Cards, o); err == nil {
		t.Error("NaiveGreedy succeeded although P4 is unhittable under the oracle")
	}
	// Drop P4: the rest are hittable with A1=1 and every suggestion
	// must respect the rule.
	hittable := append(append([]pattern.Pattern(nil), targets[:3]...), targets[4:]...)
	plan, err := Greedy(hittable, example2Cards, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Suggestions {
		if s.Combo[0] != 1 {
			t.Errorf("suggestion %v violates the oracle", s.Combo)
		}
	}
}

func TestGreedyEmptyTargets(t *testing.T) {
	plan, err := Greedy(nil, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumTuples() != 0 {
		t.Errorf("empty targets gave %d suggestions", plan.NumTuples())
	}
	if _, err := Greedy([]pattern.Pattern{{9, 9}}, example2Cards, nil); err == nil {
		t.Error("invalid target accepted")
	}
}

func TestNaiveGreedyRefusesHugeSpace(t *testing.T) {
	cards := make([]int, 30)
	for i := range cards {
		cards[i] = 2
	}
	targets := []pattern.Pattern{pattern.All(30)}
	if _, err := NaiveGreedy(targets, cards, nil); err == nil {
		t.Error("naive planner accepted 2^30 combinations")
	}
}

// TestEndToEndEnhancementRaisesCoveredLevel is the Problem 2 invariant:
// after collecting τ copies of every suggestion, the dataset has no
// uncovered pattern at level ≤ λ.
func TestEndToEndEnhancementRaisesCoveredLevel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 3 + r.Intn(3)
		cards := make([]int, d)
		for i := range cards {
			cards[i] = 2 + r.Intn(2)
		}
		ds := datagen.Zipf(100+r.Intn(200), cards, 1.5, r.Int63())
		tau := int64(2 + r.Intn(8))
		lambda := 1 + r.Intn(d)

		ix := index.Build(ds)
		res, err := mup.DeepDiver(ix, mup.Options{Threshold: tau})
		if err != nil {
			t.Log(err)
			return false
		}
		targets, err := UncoveredAtLevel(res.MUPs, cards, lambda)
		if err != nil {
			t.Log(err)
			return false
		}
		plan, err := Greedy(targets, cards, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		augmented := ds.Clone()
		if err := plan.Apply(augmented, int(tau)); err != nil {
			t.Log(err)
			return false
		}
		after, err := mup.DeepDiver(index.Build(augmented), mup.Options{Threshold: tau})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, m := range after.MUPs {
			if m.Level() <= lambda {
				t.Logf("seed %d: MUP %v at level %d ≤ λ=%d survives enhancement", seed, m, m.Level(), lambda)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestApplyValidation(t *testing.T) {
	targets := example2MUPs(t)[:6]
	plan, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.Uniform(10, example2Cards, 1)
	if err := plan.Apply(ds, 0); err == nil {
		t.Error("Apply with zero copies accepted")
	}
	before := ds.NumRows()
	if err := plan.Apply(ds, 2); err != nil {
		t.Fatal(err)
	}
	if got := ds.NumRows(); got != before+2*plan.NumTuples() {
		t.Errorf("rows after Apply = %d, want %d", got, before+2*plan.NumTuples())
	}
}
