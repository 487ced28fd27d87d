package enhance

import (
	"math/rand"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

func TestCostModelValidation(t *testing.T) {
	cards := []int{2, 3}
	cases := []struct {
		name  string
		costs [][]float64
	}{
		{"wrong attribute count", [][]float64{{1, 1}}},
		{"wrong value count", [][]float64{{1, 1}, {1, 1}}},
		{"zero cost", [][]float64{{1, 0}, {1, 1, 1}}},
		{"negative cost", [][]float64{{1, 1}, {1, -2, 1}}},
	}
	for _, tc := range cases {
		if _, err := NewCostModel(cards, tc.costs); err == nil {
			t.Errorf("%s: NewCostModel succeeded, want error", tc.name)
		}
	}
	m, err := NewCostModel(cards, [][]float64{{1, 2}, {3, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ComboCost([]uint8{1, 2}); got != 7 {
		t.Errorf("ComboCost = %v, want 7", got)
	}
	u := UniformCost(cards)
	if got := u.ComboCost([]uint8{1, 2}); got != 2 {
		t.Errorf("uniform ComboCost = %v, want 2", got)
	}
}

func TestGreedyWeightedRequiresModel(t *testing.T) {
	if _, err := GreedyWeighted(nil, []int{2}, nil, nil); err == nil {
		t.Error("nil cost model accepted")
	}
	wrong := UniformCost([]int{2, 2})
	if _, err := GreedyWeighted(nil, []int{2}, nil, wrong); err == nil {
		t.Error("mismatched cost model accepted")
	}
}

func TestGreedyWeightedUniformMatchesGreedyFirstPick(t *testing.T) {
	targets := example2MUPs(t)[:6]
	g, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := GreedyWeighted(targets, example2Cards, nil, UniformCost(example2Cards))
	if err != nil {
		t.Fatal(err)
	}
	// With uniform costs every combination costs the same, so the
	// ratio objective coincides with the hit-count objective.
	if len(w.Suggestions[0].Hits) != len(g.Suggestions[0].Hits) {
		t.Errorf("first pick hits %d, unweighted %d", len(w.Suggestions[0].Hits), len(g.Suggestions[0].Hits))
	}
	if w.NumTuples() != g.NumTuples() {
		t.Errorf("plan size %d, unweighted %d", w.NumTuples(), g.NumTuples())
	}
	if w.TotalCost() == 0 {
		t.Error("weighted plan reports zero total cost")
	}
}

func TestGreedyWeightedAvoidsExpensiveValues(t *testing.T) {
	// Two disjoint targets both hittable through A1=0 or A1=1; make
	// A1=1 ruinously expensive: all suggestions must use A1=0.
	cards := []int{2, 2, 2}
	t1, _ := pattern.Parse("X0X", cards)
	t2, _ := pattern.Parse("XX1", cards)
	costs := [][]float64{{1, 1000}, {1, 1}, {1, 1}}
	m, err := NewCostModel(cards, costs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := GreedyWeighted([]pattern.Pattern{t1, t2}, cards, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Suggestions {
		if s.Combo[0] != 0 {
			t.Errorf("suggestion %v uses the expensive value", s.Combo)
		}
	}
}

// TestGreedyWeightedAlwaysPicksTheBestRatio checks every weighted pick
// against the brute-force best hits per unit cost, on targets that draw
// one wildcard mask each and on targets that share a few masks and
// duplicates.
func TestGreedyWeightedAlwaysPicksTheBestRatio(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkGreedyMaximum(t, seed, true, false, false)
		checkGreedyMaximum(t, seed, true, false, true)
	}
}

func TestGreedyWeightedRespectsOracle(t *testing.T) {
	targets := example2MUPs(t)[:3]
	o, err := NewOracle(example2Cards, []Rule{
		{Conditions: []Condition{{Attr: 4, Values: []uint8{1}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Target P3 = XXXX1 needs A5=1, which the oracle forbids.
	if _, err := GreedyWeighted(targets, example2Cards, o, UniformCost(example2Cards)); err == nil {
		t.Error("unhittable target accepted")
	}
	plan, err := GreedyWeighted(targets[:2], example2Cards, o, UniformCost(example2Cards))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Suggestions {
		if s.Combo[4] == 1 {
			t.Errorf("suggestion %v violates the oracle", s.Combo)
		}
	}
}

func TestCollectSimulatesAcquisition(t *testing.T) {
	cards := []int{2, 3, 2, 2}
	ds := datagen.Zipf(150, cards, 1.6, 4)
	tau := int64(6)
	ix := index.Build(ds)
	res, err := mup.DeepDiver(ix, mup.Options{Threshold: tau})
	if err != nil {
		t.Fatal(err)
	}
	lambda := 2
	targets, err := UncoveredAtLevel(res.MUPs, cards, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Skip("no uncovered patterns at λ=2 for this seed")
	}
	plan, err := Greedy(targets, cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(rand.New(rand.NewSource(8)), plan, cards, nil, int(tau))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(tau)*plan.NumTuples() {
		t.Fatalf("collected %d rows, want %d", len(rows), int(tau)*plan.NumTuples())
	}
	// Every collected row matches its suggestion's Collect pattern —
	// and appending them resolves every level-λ gap even though the
	// rows are random matches rather than the exact combos.
	aug := ds.Clone()
	for _, row := range rows {
		if err := aug.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	after, err := mup.DeepDiver(index.Build(aug), mup.Options{Threshold: tau})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range after.MUPs {
		if m.Level() <= lambda {
			t.Errorf("MUP %v at level %d survives simulated collection", m, m.Level())
		}
	}
}

func TestCollectRespectsOracleAndFallsBack(t *testing.T) {
	cards := []int{2, 2}
	// One target needing A1=0; oracle forbids {A1=0, A2=1}, so random
	// draws with A2=1 are rejected and resampled.
	tgt, _ := pattern.Parse("0X", cards)
	o, err := NewOracle(cards, []Rule{
		{Conditions: []Condition{{Attr: 0, Values: []uint8{0}}, {Attr: 1, Values: []uint8{1}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Greedy([]pattern.Pattern{tgt}, cards, o)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(rand.New(rand.NewSource(1)), plan, cards, o, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !o.AllowCombo(row) {
			t.Fatalf("collected row %v violates the oracle", row)
		}
		if !tgt.Matches(row) {
			t.Fatalf("collected row %v misses the target", row)
		}
	}
	if _, err := Collect(rand.New(rand.NewSource(1)), plan, cards, o, 0); err == nil {
		t.Error("zero copies accepted")
	}
}

func TestCollectDimensionMismatch(t *testing.T) {
	plan := &Plan{Suggestions: []Suggestion{{Combo: []uint8{0}, Collect: pattern.Pattern{0}}}}
	if _, err := Collect(rand.New(rand.NewSource(1)), plan, []int{2, 2}, nil, 1); err == nil {
		t.Error("mismatched suggestion dimension accepted")
	}
}
