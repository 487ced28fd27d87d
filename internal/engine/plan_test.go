package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"coverage/internal/enhance"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// scratchReference computes the plan the seed-era one-shot pipeline
// would: a fresh MUP search against the engine's oracle, one-shot
// target expansion, sequential unseeded greedy.
func scratchReference(t testing.TB, e *Engine, mopts mup.Options, spec PlanSpec) *enhance.Plan {
	t.Helper()
	res, err := mup.ParallelPatternBreaker(e.Oracle(), mup.ParallelOptions{Options: mopts})
	if err != nil {
		t.Fatal(err)
	}
	var targets []pattern.Pattern
	if spec.MaxLevel > 0 {
		targets, err = enhance.UncoveredAtLevel(res.MUPs, e.Cards(), spec.MaxLevel)
	} else {
		targets, err = enhance.UncoveredByValueCount(res.MUPs, e.Cards(), spec.MinValueCount)
	}
	if err != nil {
		t.Fatal(err)
	}
	if spec.Oracle != nil {
		kept := targets[:0]
		for _, p := range targets {
			if spec.Oracle.AllowPattern(p) {
				kept = append(kept, p)
			}
		}
		targets = kept
	}
	var plan *enhance.Plan
	if spec.Cost != nil {
		plan, err = enhance.GreedyWeighted(targets, e.Cards(), spec.Oracle, spec.Cost)
	} else {
		plan, err = enhance.Greedy(targets, e.Cards(), spec.Oracle)
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// assertPlansEqual requires combination-for-combination equality — the
// incremental planner's contract is identity with from-scratch, not
// mere cost parity.
func assertPlansEqual(t testing.TB, label string, want, got *enhance.Plan) {
	t.Helper()
	if len(want.Targets) != len(got.Targets) {
		t.Fatalf("%s: %d targets, want %d", label, len(got.Targets), len(want.Targets))
	}
	for i := range want.Targets {
		if !want.Targets[i].Equal(got.Targets[i]) {
			t.Fatalf("%s: target %d = %v, want %v", label, i, got.Targets[i], want.Targets[i])
		}
	}
	if len(want.Suggestions) != len(got.Suggestions) {
		t.Fatalf("%s: %d suggestions, want %d", label, len(got.Suggestions), len(want.Suggestions))
	}
	for i := range want.Suggestions {
		w, g := want.Suggestions[i], got.Suggestions[i]
		if string(w.Combo) != string(g.Combo) || !w.Collect.Equal(g.Collect) || w.Cost != g.Cost {
			t.Fatalf("%s: suggestion %d = %+v, want %+v", label, i, g, w)
		}
		if len(w.Hits) != len(g.Hits) {
			t.Fatalf("%s: suggestion %d hits %v, want %v", label, i, g.Hits, w.Hits)
		}
		for j := range w.Hits {
			if w.Hits[j] != g.Hits[j] {
				t.Fatalf("%s: suggestion %d hits %v, want %v", label, i, g.Hits, w.Hits)
			}
		}
	}
	if want.TotalCost() != got.TotalCost() {
		t.Fatalf("%s: total cost %v, want %v", label, got.TotalCost(), want.TotalCost())
	}
}

// planTestEngine seeds an engine where one combination is far above
// any test threshold (so appends of it never move a MUP) and the rest
// of the space is sparse.
func planTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(testSchema(t, []int{2, 3, 3}), Options{})
	rows := [][]uint8{}
	for i := 0; i < 50; i++ {
		rows = append(rows, []uint8{0, 0, 0})
	}
	rows = append(rows, []uint8{1, 1, 1}, []uint8{1, 2, 2}, []uint8{0, 1, 2})
	if err := e.Append(rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPlanCacheLifecycle(t *testing.T) {
	e := planTestEngine(t)
	ctx := context.Background()
	mopts := mup.Options{Threshold: 3}
	spec := PlanSpec{MaxLevel: 2}

	p1, err := e.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEqual(t, "first build", scratchReference(t, e, mopts, spec), p1)
	st := e.Stats()
	if st.PlanBuilds != 1 || st.PlanHits != 0 || st.PlanProbes != 1 || st.CachedPlans != 1 {
		t.Fatalf("after build: %+v", st)
	}

	// Same generation: a pure cache hit returning the same plan.
	p2, err := e.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("cache hit returned a different plan value")
	}
	st = e.Stats()
	if st.PlanHits != 1 || st.PlanBuilds != 1 {
		t.Fatalf("after hit: %+v", st)
	}

	// Appending more copies of an abundantly covered combination
	// advances the generation without moving any MUP: the re-expanded
	// targets are unchanged, so the plan is kept with zero greedy work.
	if err := e.Append([][]uint8{{0, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	p3, err := e.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("unchanged targets rebuilt the plan")
	}
	st = e.Stats()
	if st.PlanRepairs != 1 || st.PlanRebuilds != 0 || st.PlanBuilds != 1 {
		t.Fatalf("after no-op repair: %+v", st)
	}

	// Covering part of the uncovered space moves MUPs and targets: a
	// re-plan, identical to from-scratch.
	batch := [][]uint8{}
	for i := 0; i < 4; i++ {
		batch = append(batch, []uint8{1, 0, 1}, []uint8{0, 2, 1})
	}
	if err := e.Append(batch); err != nil {
		t.Fatal(err)
	}
	p4, err := e.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEqual(t, "after rebuild", scratchReference(t, e, mopts, spec), p4)
	st = e.Stats()
	if st.PlanRebuilds == 0 {
		t.Fatalf("expected a re-plan: %+v", st)
	}
	if st.PlanProbes != 4 {
		t.Fatalf("probes = %d, want 4", st.PlanProbes)
	}
}

func TestPlanCacheKeying(t *testing.T) {
	e := planTestEngine(t)
	ctx := context.Background()
	mopts := mup.Options{Threshold: 3}

	rules := []enhance.Rule{{Conditions: []enhance.Condition{{Attr: 0, Values: []uint8{1}}, {Attr: 1, Values: []uint8{2}}}}}
	o1, err := enhance.NewOracle(e.Cards(), rules)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := enhance.NewOracle(e.Cards(), rules)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(ctx, mopts, PlanSpec{MaxLevel: 2, Oracle: o1}); err != nil {
		t.Fatal(err)
	}
	// A different oracle value with the same rules shares the entry.
	if _, err := e.Plan(ctx, mopts, PlanSpec{MaxLevel: 2, Oracle: o2}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PlanBuilds != 1 || st.PlanHits != 1 {
		t.Fatalf("fingerprint keying: %+v", st)
	}
	// No oracle, a different objective, and a cost model each get
	// their own entries.
	if _, err := e.Plan(ctx, mopts, PlanSpec{MaxLevel: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(ctx, mopts, PlanSpec{MinValueCount: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(ctx, mopts, PlanSpec{MaxLevel: 2, Cost: enhance.UniformCost(e.Cards())}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.PlanBuilds != 4 || st.CachedPlans != 4 {
		t.Fatalf("distinct keys: %+v", st)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	e := NewFromDataset(fullDataset(t, testSchema(t, []int{2, 3, 3}), [][][]uint8{
		randomRows(rand.New(rand.NewSource(3)), []int{2, 3, 3}, 40),
	}), Options{MaxCachedPlans: 2})
	ctx := context.Background()
	for _, lvl := range []int{1, 2, 3} {
		if _, err := e.Plan(ctx, mup.Options{Threshold: 3}, PlanSpec{MaxLevel: lvl}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CachedPlans != 2 {
		t.Fatalf("cached plans = %d, want 2 (evicted)", st.CachedPlans)
	}
}

func TestPlanCancellation(t *testing.T) {
	e := planTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Plan(ctx, mup.Options{Threshold: 3}, PlanSpec{MaxLevel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Nothing was cached by the aborted request.
	if st := e.Stats(); st.CachedPlans != 0 {
		t.Fatalf("canceled request cached a plan: %+v", st)
	}
}

func TestPlanObjectiveValidation(t *testing.T) {
	e := planTestEngine(t)
	ctx := context.Background()
	if _, err := e.Plan(ctx, mup.Options{Threshold: 3}, PlanSpec{}); err == nil {
		t.Error("empty objective accepted")
	}
	if _, err := e.Plan(ctx, mup.Options{Threshold: 3}, PlanSpec{MaxLevel: 1, MinValueCount: 2}); err == nil {
		t.Error("double objective accepted")
	}
	if _, err := e.Plan(ctx, mup.Options{Threshold: 3}, PlanSpec{MaxLevel: 4}); err == nil {
		t.Error("level past the dimension accepted")
	}
	// The objective is checked before the MUP search it would pay for.
	if st := e.Stats(); st.FullSearches != 0 || st.PlanProbes != 0 {
		t.Errorf("rejected objectives searched: %+v", st)
	}
}

// TestPlanRepairAfterRestore pins the snapshot path: a restored entry
// answers its own generation as a hit; after a mutation that leaves
// its targets unchanged it is kept, the same plan value, with no
// greedy work; after one that moves them it is re-planned equal to
// from-scratch.
func TestPlanRepairAfterRestore(t *testing.T) {
	e := planTestEngine(t)
	ctx := context.Background()
	mopts := mup.Options{Threshold: 3}
	spec := PlanSpec{MaxLevel: 2}
	if _, err := e.Plan(ctx, mopts, spec); err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromState(e.ExportState(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.CachedPlans != 1 {
		t.Fatalf("restored cached plans = %d, want 1", st.CachedPlans)
	}
	// Unchanged data: the restored entry answers as a hit.
	p1, err := restored.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.PlanHits != e.Stats().PlanHits+1 {
		t.Fatalf("restored probe was not a hit: %+v", st)
	}
	// More copies of an abundant combination: the targets stay, so the
	// restored plan is kept.
	if err := restored.Append([][]uint8{{0, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	before := restored.Stats()
	p2, err := restored.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	after := restored.Stats()
	if p2 != p1 {
		t.Error("unchanged targets replaced the restored plan")
	}
	if after.PlanRepairs != before.PlanRepairs+1 || after.PlanRebuilds != before.PlanRebuilds || after.PlanBuilds != before.PlanBuilds {
		t.Fatalf("unchanged targets: %+v, before %+v", after, before)
	}
	// Covering part of the uncovered space moves the targets: a re-plan.
	batch := [][]uint8{}
	for i := 0; i < 4; i++ {
		batch = append(batch, []uint8{1, 0, 1}, []uint8{0, 2, 1})
	}
	if err := restored.Append(batch); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Plan(ctx, mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.PlanRebuilds != after.PlanRebuilds+1 {
		t.Fatalf("moved targets did not re-plan: %+v", st)
	}
	assertPlansEqual(t, "restored re-plan", scratchReference(t, restored, mopts, spec), got)
}

// TestConcurrentPlans: readers planning while a writer mutates share
// stale entries, and a kept plan is one value handed to every reader;
// under -race nothing they share may be written. Once the writer stops,
// the cached plan equals from-scratch.
func TestConcurrentPlans(t *testing.T) {
	cards := []int{2, 3, 3}
	e := planTestEngine(t)
	mopts := mup.Options{Threshold: 3}
	spec := PlanSpec{MaxLevel: 2}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Plan(context.Background(), mopts, spec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 40; b++ {
		if err := e.Append(randomRows(rng, cards, 1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	got, err := e.Plan(context.Background(), mopts, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEqual(t, "after concurrent plans", scratchReference(t, e, mopts, spec), got)
}

// FuzzPlanEquivalence drives randomized mutation schedules and checks
// after every step that the cached plan — kept while its targets stay,
// re-planned when they change — is identical — same target set, same suggestions, same cost — to a plan
// computed from scratch over the current data.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(42), uint8(4), uint8(1))
	f.Add(int64(-7), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, tau8, lvl8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		cards := []int{2, 3, 3}
		tau := int64(tau8%5 + 1)
		lvl := int(lvl8%3 + 1)
		e := New(testSchema(t, cards), Options{})
		if err := e.Append(randomRows(rng, cards, 20+rng.Intn(40))); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		mopts := mup.Options{Threshold: tau}
		spec := PlanSpec{MaxLevel: lvl}

		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0:
				if err := e.Append(randomRows(rng, cards, 1+rng.Intn(8))); err != nil {
					t.Fatal(err)
				}
			case 1:
				// Delete rows that are present: re-delete a sample of
				// random combos guarded by coverage.
				var rows [][]uint8
				for k := 0; k < 3; k++ {
					row := randomRows(rng, cards, 1)[0]
					if c, err := e.Coverage(pattern.FromValues(row)); err == nil && c > 0 {
						rows = append(rows, row)
						break
					}
				}
				if len(rows) > 0 {
					if err := e.Delete(rows); err != nil {
						t.Fatal(err)
					}
				}
			default:
				// No mutation: exercises the pure hit path.
			}
			got, err := e.Plan(ctx, mopts, spec)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansEqual(t, "fuzz step", scratchReference(t, e, mopts, spec), got)
		}
	})
}
