package enhance

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coverage/internal/pattern"
)

// randomTargetCase generates a random (cards, targets) pair of the
// shape the planner sees.
func randomTargetCase(r *rand.Rand) ([]int, []pattern.Pattern) {
	return randomTargets(r, false)
}

// randomTargets draws 2–5 attributes of cardinality 2–4 and up to 14
// targets. Each target draws its own wildcard positions; with shared,
// the targets take theirs from 1–3 masks drawn up front, and about one
// in four is an exact copy of an earlier target — the groups the
// greedy planner's bound counts.
func randomTargets(r *rand.Rand, shared bool) ([]int, []pattern.Pattern) {
	d := 2 + r.Intn(4)
	cards := make([]int, d)
	for i := range cards {
		cards[i] = 2 + r.Intn(3)
	}
	var masks [][]bool
	if shared {
		masks = make([][]bool, 1+r.Intn(3))
		for m := range masks {
			masks[m] = make([]bool, d)
			for i := range masks[m] {
				masks[m][i] = r.Intn(2) == 0
			}
		}
	}
	var targets []pattern.Pattern
	for k := 0; k < 1+r.Intn(14); k++ {
		if shared && k > 0 && r.Intn(4) == 0 {
			targets = append(targets, slices.Clone(targets[r.Intn(k)]))
			continue
		}
		var mask []bool
		if shared {
			mask = masks[r.Intn(len(masks))]
		}
		p := make(pattern.Pattern, d)
		for i := range p {
			if shared && mask[i] || !shared && r.Intn(2) == 0 {
				p[i] = pattern.Wildcard
			} else {
				p[i] = uint8(r.Intn(cards[i]))
			}
		}
		targets = append(targets, p)
	}
	return cards, targets
}

func randomCostModel(r *rand.Rand, cards []int) *CostModel {
	costs := make([][]float64, len(cards))
	for i, c := range cards {
		costs[i] = make([]float64, c)
		for v := range costs[i] {
			costs[i][v] = 0.5 + 4*r.Float64()
		}
	}
	m, err := NewCostModel(cards, costs)
	if err != nil {
		panic(err)
	}
	return m
}

func plansEqual(t *testing.T, label string, want, got *Plan) {
	t.Helper()
	if len(want.Suggestions) != len(got.Suggestions) {
		t.Fatalf("%s: %d suggestions, want %d", label, len(got.Suggestions), len(want.Suggestions))
	}
	for i := range want.Suggestions {
		w, g := want.Suggestions[i], got.Suggestions[i]
		if string(w.Combo) != string(g.Combo) {
			t.Fatalf("%s: suggestion %d combo %v, want %v", label, i, g.Combo, w.Combo)
		}
		if !w.Collect.Equal(g.Collect) {
			t.Fatalf("%s: suggestion %d collect %v, want %v", label, i, g.Collect, w.Collect)
		}
		if len(w.Hits) != len(g.Hits) {
			t.Fatalf("%s: suggestion %d hits %v, want %v", label, i, g.Hits, w.Hits)
		}
		for j := range w.Hits {
			if w.Hits[j] != g.Hits[j] {
				t.Fatalf("%s: suggestion %d hits %v, want %v", label, i, g.Hits, w.Hits)
			}
		}
		if w.Cost != g.Cost {
			t.Fatalf("%s: suggestion %d cost %v, want %v", label, i, g.Cost, w.Cost)
		}
	}
}

// TestSearchVariantsProduceIdenticalPlans: the Search variants,
// polling a live context inside the tree search, select the plans of
// Greedy and GreedyWeighted combination for combination. Checked for
// both objectives.
func TestSearchVariantsProduceIdenticalPlans(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cards, targets := randomTargetCase(r)
		cost := randomCostModel(r, cards)

		base, err := Greedy(targets, cards, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		baseW, err := GreedyWeighted(targets, cards, nil, cost)
		if err != nil {
			t.Log(err)
			return false
		}

		opts := SearchOptions{Ctx: context.Background()}
		got, err := GreedySearch(targets, cards, nil, opts)
		if err != nil {
			t.Log(err)
			return false
		}
		plansEqual(t, "greedy", base, got)
		gotW, err := GreedyWeightedSearch(targets, cards, nil, cost, opts)
		if err != nil {
			t.Log(err)
			return false
		}
		plansEqual(t, "weighted", baseW, gotW)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSearchVariantsRespectOracle re-runs the oracle-constrained case
// of TestGreedyRespectsOracle through GreedySearch.
func TestSearchVariantsRespectOracle(t *testing.T) {
	targets := example2MUPs(t)[:6]
	o, err := NewOracle(example2Cards, []Rule{
		{Conditions: []Condition{{Attr: 0, Values: []uint8{0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hittable := append(append([]pattern.Pattern(nil), targets[:3]...), targets[4:]...)
	base, err := Greedy(hittable, example2Cards, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedySearch(hittable, example2Cards, o, SearchOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	plansEqual(t, "oracle", base, got)
	for _, s := range got.Suggestions {
		if s.Combo[0] != 1 {
			t.Errorf("suggestion %v violates the oracle", s.Combo)
		}
	}
	// The unhittable case still errors.
	if _, err := GreedySearch(targets, example2Cards, o, SearchOptions{Ctx: context.Background()}); err == nil {
		t.Error("unhittable target accepted")
	}
}

// TestSearchCancellation pins the ctx plumbing: a canceled context
// aborts the search with ctx.Err() instead of a plan, for both
// objectives.
func TestSearchCancellation(t *testing.T) {
	targets := example2MUPs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GreedySearch(targets, example2Cards, nil, SearchOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	_, err = GreedyWeightedSearch(targets, example2Cards, nil, UniformCost(example2Cards), SearchOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("weighted: err = %v, want context.Canceled", err)
	}
	// An uncanceled context changes nothing.
	live, err := GreedySearch(targets, example2Cards, nil, SearchOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	plansEqual(t, "live-ctx", base, live)
}

// TestSearchClampsWorkerCount: the deprecated Workers field is
// ignored, so even an absurd count plans sequentially, allocating
// nothing in proportion to it.
func TestSearchClampsWorkerCount(t *testing.T) {
	targets := example2MUPs(t)
	base, err := Greedy(targets, example2Cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedySearch(targets, example2Cards, nil, SearchOptions{Workers: 2_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	plansEqual(t, "clamped", base, got)
}

// TestSearchSingleAttribute covers the d=1 edge where the root is the
// leaf level.
func TestSearchSingleAttribute(t *testing.T) {
	cards := []int{4}
	targets := []pattern.Pattern{{2}, {pattern.Wildcard}}
	base, err := Greedy(targets, cards, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedySearch(targets, cards, nil, SearchOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	plansEqual(t, "d=1", base, got)
	if base.NumTuples() != 1 {
		t.Fatalf("plan = %v", base.Suggestions)
	}
}

// FuzzGreedyMaximum runs checkGreedyMaximum on fuzzed inputs. Its
// corpus mixes the objectives, oracles and target shapes;
// TestGreedyAlwaysPicksTheMaximum and
// TestGreedyWeightedAlwaysPicksTheBestRatio run seeds 0–59 of each
// objective in both mask modes, without oracle.
func FuzzGreedyMaximum(f *testing.F) {
	for seed := int64(60); seed < 90; seed++ {
		f.Add(seed, seed%2 == 0, seed%3 == 0, seed%5 < 3)
	}
	f.Fuzz(checkGreedyMaximum)
}

// checkGreedyMaximum replays a plan against brute force: each pick
// must reach the maximum over all oracle-valid combinations of the
// targets not hit yet — in hits, or in hits per unit cost to within
// 1e-9 relative — and its Hits must be exactly the remaining targets
// it matches. The inputs choose the objective, an optional oracle
// rule and whether the targets share a few wildcard masks and exact
// duplicates, the shapes the group bound prunes on, or draw one mask
// each.
func checkGreedyMaximum(t *testing.T, seed int64, weighted, withOracle, sharedMasks bool) {
	r := rand.New(rand.NewSource(seed))
	cards, targets := randomTargets(r, sharedMasks)
	d := len(cards)
	var cost *CostModel
	if weighted {
		cost = randomCostModel(r, cards)
	}
	var oracle *Oracle
	if withOracle {
		a := r.Intn(d)
		rule := Rule{Conditions: []Condition{{Attr: a, Values: []uint8{uint8(r.Intn(cards[a]))}}}}
		if b := r.Intn(d); b != a {
			rule.Conditions = append(rule.Conditions, Condition{Attr: b, Values: []uint8{uint8(r.Intn(cards[b]))}})
		}
		var err error
		if oracle, err = NewOracle(cards, []Rule{rule}); err != nil {
			t.Fatal(err)
		}
	}

	var plan *Plan
	var err error
	if weighted {
		plan, err = GreedyWeighted(targets, cards, oracle, cost)
	} else {
		plan, err = Greedy(targets, cards, oracle)
	}
	valid := func(combo []uint8) bool { return oracle == nil || oracle.AllowCombo(combo) }
	if err != nil {
		// Only a target no valid combination matches may fail a plan.
		for _, p := range targets {
			hittable := false
			pattern.EnumerateCombos(cards, func(combo []uint8) bool {
				hittable = valid(combo) && p.Matches(combo)
				return !hittable
			})
			if !hittable {
				return
			}
		}
		t.Fatalf("every target is hittable, but planning failed: %v", err)
	}

	remaining := make([]bool, len(targets))
	for j := range remaining {
		remaining[j] = true
	}
	score := func(combo []uint8) (float64, []int) {
		var hits []int
		for j, p := range targets {
			if remaining[j] && p.Matches(combo) {
				hits = append(hits, j)
			}
		}
		if weighted {
			return float64(len(hits)) / cost.ComboCost(combo), hits
		}
		return float64(len(hits)), hits
	}
	for si, s := range plan.Suggestions {
		if !valid(s.Combo) {
			t.Fatalf("pick %d: %v violates the oracle", si, s.Combo)
		}
		best := 0.0
		pattern.EnumerateCombos(cards, func(combo []uint8) bool {
			if sc, _ := score(combo); valid(combo) && sc > best {
				best = sc
			}
			return true
		})
		got, hits := score(s.Combo)
		if !slices.Equal(hits, s.Hits) {
			t.Fatalf("pick %d: %v records hits %v, matches %v", si, s.Combo, s.Hits, hits)
		}
		if weighted && got < best*(1-1e-9) || !weighted && got != best {
			t.Fatalf("pick %d: %v scores %v, brute-force maximum %v", si, s.Combo, got, best)
		}
		for _, j := range hits {
			remaining[j] = false
		}
	}
	for j, left := range remaining {
		if left {
			t.Fatalf("target %v left unhit", targets[j])
		}
	}
}
