package mup

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// multiset is a from-scratch reference state for the repair tests: a
// combo→multiplicity map mutated alongside the repaired MUP set.
type multiset struct {
	schema *dataset.Schema
	counts map[string]int64
}

func newMultiset(schema *dataset.Schema) *multiset {
	return &multiset{schema: schema, counts: make(map[string]int64)}
}

func (m *multiset) add(combo []uint8, n int64) {
	m.counts[string(combo)] += n
	if m.counts[string(combo)] == 0 {
		delete(m.counts, string(combo))
	}
}

func (m *multiset) index() *index.Index {
	return index.BuildFromCounts(m.schema, m.counts)
}

// removals builds a removed-delta list retracting count rows of each
// combination.
func removals(count int64, combos ...pattern.Pattern) []Delta {
	out := make([]Delta, len(combos))
	for i, c := range combos {
		out[i] = Delta{Combo: c, Count: -count}
	}
	return out
}

func mustEqualMUPs(t *testing.T, got, want *Result, ctx string) {
	t.Helper()
	if len(got.MUPs) != len(want.MUPs) {
		t.Fatalf("%s: %d MUPs, want %d\ngot:  %v\nwant: %v",
			ctx, len(got.MUPs), len(want.MUPs), got.MUPs, want.MUPs)
	}
	for i := range got.MUPs {
		if !got.MUPs[i].Equal(want.MUPs[i]) {
			t.Fatalf("%s: MUPs[%d] = %v, want %v", ctx, i, got.MUPs[i], want.MUPs[i])
		}
	}
}

// TestRepairBidirectionalFromEmptyOld covers the regime downward-only
// repair cannot handle at all: a fully covered dataset (no MUPs) loses
// rows, so new MUPs must be discovered by climbing from the removed
// combinations alone.
func TestRepairBidirectionalFromEmptyOld(t *testing.T) {
	cards := []int{2, 2}
	schema := dataset.BinarySchema("a", 2)
	ms := newMultiset(schema)
	pattern.EnumerateCombos(cards, func(c []uint8) bool {
		ms.add(c, 2)
		return true
	})
	opts := Options{Threshold: 2}
	old, err := Naive(ms.index(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(old.MUPs) != 0 {
		t.Fatalf("precondition: fully covered dataset has MUPs %v", old.MUPs)
	}

	// Delete one row of combo 01: cov(01)=1 < 2 while both parents 0X
	// (3) and X1 (3) stay covered, so 01 itself is the new MUP.
	ms.add([]uint8{0, 1}, -1)
	got, err := RepairBidirectional(ms.index(), old, removals(1, pattern.Pattern{0, 1}), []Delta{}, ParallelOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Naive(ms.index(), opts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMUPs(t, got, want, "after single delete")
	if len(got.MUPs) == 0 {
		t.Fatal("deletion produced no MUPs; the test lost its point")
	}
	if err := VerifyResult(ms.index(), opts.Threshold, got); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBidirectionalClimbsPastSeeds deletes every row matching a
// general pattern so the new MUP sits strictly above the removed
// combinations — the upward walk must pass through multiple uncovered
// intermediate levels.
func TestRepairBidirectionalClimbsPastSeeds(t *testing.T) {
	cards := []int{2, 2, 2}
	schema := dataset.BinarySchema("a", 3)
	ms := newMultiset(schema)
	pattern.EnumerateCombos(cards, func(c []uint8) bool {
		ms.add(c, 1)
		return true
	})
	opts := Options{Threshold: 1}
	old, err := Naive(ms.index(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Remove all four rows with a0=1: the MUP becomes 1XX (level 1),
	// three levels above the removed level-3 combos.
	var removed []Delta
	pattern.EnumerateCombos(cards, func(c []uint8) bool {
		if c[0] == 1 {
			ms.add(c, -1)
			removed = append(removed, Delta{Combo: pattern.FromValues(c), Count: -1})
		}
		return true
	})
	got, err := RepairBidirectional(ms.index(), old, removed, nil, ParallelOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if k := keys(got.MUPs); len(k) != 1 || k[0] != "1XX" {
		t.Fatalf("MUPs = %v, want [1XX]", k)
	}
	if err := VerifyResult(ms.index(), opts.Threshold, got); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBidirectionalStaleMaximality covers old MUPs that stay
// uncovered but stop being maximal because an ancestor dropped below τ:
// the repaired set must replace them with the ancestor.
func TestRepairBidirectionalStaleMaximality(t *testing.T) {
	schema := dataset.BinarySchema("a", 2)
	ms := newMultiset(schema)
	// cov(00)=2, cov(01)=1, cov(10)=2, cov(11)=0. τ=2: MUPs are 01
	// and 11 (X1 has cov 1 < 2... check parents) — derive via Naive.
	ms.add([]uint8{0, 0}, 2)
	ms.add([]uint8{0, 1}, 1)
	ms.add([]uint8{1, 0}, 2)
	opts := Options{Threshold: 2}
	old, err := Naive(ms.index(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Delete one 00 row: cov(0X) drops to 2, cov(X0) to 3, cov(00) to
	// 1 — new uncovered patterns appear above the old MUPs.
	ms.add([]uint8{0, 0}, -1)
	got, err := RepairBidirectional(ms.index(), old, removals(1, pattern.Pattern{0, 0}), []Delta{}, ParallelOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Naive(ms.index(), opts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMUPs(t, got, want, "after maximality-breaking delete")
	if err := VerifyResult(ms.index(), opts.Threshold, got); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBidirectionalRandomized is the equivalence property at the
// mup layer: arbitrary interleavings of appends and deletes, repaired
// step by step, must match a from-scratch naive search at every step —
// including level-bounded searches, across worker counts, and with the
// cached coverage values (Cov) staying exact so the delta-update path
// is continuously re-seeded from its own output.
func TestRepairBidirectionalRandomized(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cards   []int
		tau     int64
		maxL    int
		workers int
	}{
		{"binary-d4", []int{2, 2, 2, 2}, 3, 0, 1},
		{"mixed-cards", []int{2, 3, 2}, 4, 0, 4},
		{"level-bounded", []int{2, 3, 2, 2}, 3, 2, 3},
		{"tau-1", []int{3, 2, 2}, 1, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			attrs := make([]dataset.Attribute, len(tc.cards))
			for i, c := range tc.cards {
				vals := make([]string, c)
				for v := range vals {
					vals[v] = fmt.Sprintf("v%d", v)
				}
				attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Values: vals}
			}
			schema := dataset.MustSchema(attrs)
			ms := newMultiset(schema)
			rng := rand.New(rand.NewSource(17))
			popts := ParallelOptions{Options: Options{Threshold: tc.tau, MaxLevel: tc.maxL}, Workers: tc.workers}

			cur, err := Naive(ms.index(), popts.Options)
			if err != nil {
				t.Fatal(err)
			}
			randCombo := func() []uint8 {
				c := make([]uint8, len(tc.cards))
				for i, card := range tc.cards {
					c[i] = uint8(rng.Intn(card))
				}
				return c
			}
			for step := 0; step < 40; step++ {
				net := make(map[string]int64)
				nMut := 1 + rng.Intn(8)
				for m := 0; m < nMut; m++ {
					c := randCombo()
					if rng.Intn(2) == 0 || ms.counts[string(c)] == 0 {
						n := int64(1 + rng.Intn(3))
						ms.add(c, n)
						net[string(c)] += n
					} else {
						ms.add(c, -1)
						net[string(c)]--
					}
				}
				var removed, added []Delta
				for k, n := range net {
					switch {
					case n < 0:
						removed = append(removed, Delta{Combo: pattern.Pattern(k), Count: n})
					case n > 0:
						added = append(added, Delta{Combo: pattern.Pattern(k), Count: n})
					}
				}
				ix := ms.index()
				// Alternate between an exact added set and an unknown
				// one (nil): both must repair to the same result.
				addedArg := added
				if addedArg == nil {
					addedArg = []Delta{}
				}
				if step%2 == 1 {
					addedArg = nil
				}
				got, err := RepairBidirectional(ix, cur, removed, addedArg, popts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Naive(ix, popts.Options)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualMUPs(t, got, want, fmt.Sprintf("step %d", step))
				if err := VerifyResult(ix, tc.tau, got); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				cur = got
			}
		})
	}
}

// TestRepairRandomizedAppendOnly drives the downward-only Repair the
// same way: append batches with exact added deltas, repaired result
// re-seeding the next repair, checked against Naive (and its Cov
// values against fresh probes) at every step.
func TestRepairRandomizedAppendOnly(t *testing.T) {
	cards := []int{2, 3, 2}
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "a0", Values: []string{"u", "v"}},
		{Name: "a1", Values: []string{"u", "v", "w"}},
		{Name: "a2", Values: []string{"u", "v"}},
	})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ms := newMultiset(schema)
			rng := rand.New(rand.NewSource(29))
			popts := ParallelOptions{Options: Options{Threshold: 4}, Workers: workers}
			cur, err := Naive(ms.index(), popts.Options)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 30; step++ {
				net := make(map[string]int64)
				for m := 0; m < 1+rng.Intn(6); m++ {
					c := make([]uint8, len(cards))
					for i, card := range cards {
						c[i] = uint8(rng.Intn(card))
					}
					n := int64(1 + rng.Intn(3))
					ms.add(c, n)
					net[string(c)] += n
				}
				added := make([]Delta, 0, len(net))
				for k, n := range net {
					added = append(added, Delta{Combo: pattern.Pattern(k), Count: n})
				}
				if step%3 == 2 {
					added = nil // unknown added set: must fall back to probes
				}
				ix := ms.index()
				got, err := Repair(ix, cur, added, popts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Naive(ix, popts.Options)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualMUPs(t, got, want, fmt.Sprintf("step %d", step))
				if err := VerifyResult(ix, popts.Threshold, got); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				cur = got
			}
		})
	}
}

// TestRepairBidirectionalRejectsBadSeeds mirrors Repair's validation:
// seeds from another schema must fail loudly, not corrupt the search.
func TestRepairBidirectionalRejectsBadSeeds(t *testing.T) {
	ix := example1(t)
	if _, err := RepairBidirectional(ix, &Result{MUPs: []pattern.Pattern{{9, 9, 9}}}, nil, nil, ParallelOptions{Options: Options{Threshold: 1}}); err == nil {
		t.Error("invalid old seed accepted")
	}
	if _, err := RepairBidirectional(ix, &Result{}, removals(1, pattern.Pattern{0, 0}), nil, ParallelOptions{Options: Options{Threshold: 1}}); err == nil {
		t.Error("wrong-dimension removed seed accepted")
	}
	if _, err := Repair(ix, &Result{MUPs: []pattern.Pattern{{9, 9, 9}}}, nil, ParallelOptions{Options: Options{Threshold: 1}}); err == nil {
		t.Error("invalid repair seed accepted")
	}
	if _, err := Repair(ix, &Result{}, []Delta{{Combo: pattern.Pattern{0, pattern.Wildcard, 0}, Count: 1}}, ParallelOptions{Options: Options{Threshold: 1}}); err == nil {
		t.Error("non-full added combination accepted")
	}
}

// TestRepairBidirectionalThresholdZero: non-positive thresholds cover
// everything; the repaired set must be empty regardless of seeds.
func TestRepairBidirectionalThresholdZero(t *testing.T) {
	ix := example1(t)
	res, err := RepairBidirectional(ix, &Result{MUPs: []pattern.Pattern{pattern.All(3)}}, nil, nil, ParallelOptions{Options: Options{Threshold: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 0 {
		t.Errorf("MUPs = %v, want none at τ=0", res.MUPs)
	}
}

// TestDeltaSetMatchesScan holds deltaSet's masks to a literal scan of
// the delta list: for every pattern of a small lattice, the root
// included, match must report whether some delta combination is
// dominated by the pattern and the summed |Count| of those that are.
// The lists straddle the mask word boundary — 1, 63, 64, 65 and 130
// deltas — and mix both signs; a list holding a zero count is refused.
func TestDeltaSetMatchesScan(t *testing.T) {
	cards := []int{3, 2, 4, 2}
	ix := index.Build(datagen.Uniform(50, cards, 1))
	var lattice []pattern.Pattern
	var walk func(p pattern.Pattern, i int)
	walk = func(p pattern.Pattern, i int) {
		if i == len(cards) {
			lattice = append(lattice, p.Clone())
			return
		}
		for v := -1; v < cards[i]; v++ {
			p[i] = pattern.Wildcard
			if v >= 0 {
				p[i] = uint8(v)
			}
			walk(p, i+1)
		}
	}
	walk(make(pattern.Pattern, len(cards)), 0)

	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65, 130} {
		for _, counts := range []string{"positive", "negative", "mixed", "with-zero"} {
			deltas := make([]Delta, n)
			for i := range deltas {
				combo := make(pattern.Pattern, len(cards))
				for j, c := range cards {
					combo[j] = uint8(rng.Intn(c))
				}
				c := int64(1 + rng.Intn(9))
				switch {
				case counts == "negative", counts == "mixed" && rng.Intn(2) == 0:
					c = -c
				case counts == "with-zero" && (i == n-1 || rng.Intn(4) == 0):
					c = 0
				}
				deltas[i] = Delta{Combo: combo, Count: c}
			}
			s, err := prepDeltas(ix, deltas, "test", true)
			if counts == "with-zero" {
				if err == nil {
					t.Errorf("%d deltas with a zero count: prepDeltas accepted them", n)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range lattice {
				var wantTouched bool
				var wantSum int64
				for _, d := range deltas {
					if p.Dominates(d.Combo) {
						wantTouched = true
						wantSum += max(d.Count, -d.Count)
					}
				}
				touched, sum := s.match(p, true)
				if touched != wantTouched || sum != wantSum {
					t.Fatalf("%d %s deltas, pattern %v: match = %v, %d; scan = %v, %d", n, counts, p, touched, sum, wantTouched, wantSum)
				}
				if got := s.touched(p); got != wantTouched {
					t.Fatalf("%d %s deltas, pattern %v: touched = %v, scan %v", n, counts, p, got, wantTouched)
				}
			}
		}
	}

	// An empty set touches nothing; an unknown one touches everything.
	root := pattern.All(len(cards))
	for _, c := range []struct {
		deltas          []Delta
		nilMeansUnknown bool
		want            bool
	}{{nil, false, false}, {[]Delta{}, true, false}, {nil, true, true}} {
		s, err := prepDeltas(ix, c.deltas, "test", c.nilMeansUnknown)
		if err != nil {
			t.Fatal(err)
		}
		if got, sum := s.match(root, true); got != c.want || sum != 0 {
			t.Errorf("deltas %v (nil unknown: %v): root match = %v, %d; want %v, 0", c.deltas, c.nilMeansUnknown, got, sum, c.want)
		}
	}
}
