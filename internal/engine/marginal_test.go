package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// lowPatterns lists every pattern of level 1 to 3 over cards.
func lowPatterns(cards []int) []pattern.Pattern {
	var out []pattern.Pattern
	p := pattern.All(len(cards))
	var fix func(from, left int)
	fix = func(from, left int) {
		for i := from; i < len(cards); i++ {
			for v := 0; v < cards[i]; v++ {
				p[i] = uint8(v)
				out = append(out, slices.Clone(p))
				if left > 1 {
					fix(i+1, left-1)
				}
			}
			p[i] = pattern.Wildcard
		}
	}
	fix(0, 3)
	return out
}

// marginalBytes sums the marginal tables of the engine's current bases.
func marginalBytes(e *Engine) int64 {
	var b int64
	for _, sh := range e.Stats().Shards {
		b += sh.MarginalBytes
	}
	return b
}

// TestSearchesBuildNoMarginal: only /coverage's batch path builds a
// base's marginal table. The cold search (cube and walk), the repairs
// after an append and after a delete, and a plan all leave every base
// a fresh engine ever had without one; a coverage batch then builds one
// on every current base.
func TestSearchesBuildNoMarginal(t *testing.T) {
	cards := []int{3, 2, 4, 2, 3, 2}
	for _, shards := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(shards)))
		e := NewSharded(testSchema(t, cards), shards, Options{})
		seen := map[*index.Index]bool{}
		check := func(step string) {
			t.Helper()
			for _, c := range e.cores {
				seen[c.base] = true
			}
			for b := range seen {
				if n := b.MarginalBytes(); n != 0 {
					t.Fatalf("%d shards, after %s: a base holds a %d-byte marginal table", shards, step, n)
				}
			}
		}
		if err := e.Append(randomRows(rng, cards, 400)); err != nil {
			t.Fatal(err)
		}
		oracle := e.Oracle()
		popts := mup.ParallelOptions{Options: mup.Options{Threshold: 6}}
		if _, err := mup.Search(oracle, popts); err != nil {
			t.Fatal(err)
		}
		if _, err := mup.ParallelPatternBreaker(oracle, popts); err != nil {
			t.Fatal(err)
		}
		if _, err := mup.DeepDiver(oracle, popts.Options); err != nil {
			t.Fatal(err)
		}
		check("the cold searches")
		if _, err := e.MUPs(popts.Options); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(randomRows(rng, cards, 30)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.MUPs(popts.Options); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(drawDeletableEngine(rng, e, 30)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.MUPs(popts.Options); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Repairs == 0 || st.BidirectionalRepairs == 0 {
			t.Fatalf("precondition: %d repairs, %d bidirectional repairs, want both", st.Repairs, st.BidirectionalRepairs)
		}
		check("the repairs")
		if _, err := e.Plan(context.Background(), popts.Options, PlanSpec{MaxLevel: 2}); err != nil {
			t.Fatal(err)
		}
		check("a plan")
		if _, err := e.CoverageBatch([]pattern.Pattern{pattern.All(len(cards))}); err != nil {
			t.Fatal(err)
		}
		for i, c := range e.cores {
			if c.base.MarginalBytes() == 0 {
				t.Fatalf("%d shards: shard %d has no marginal table after a coverage batch", shards, i)
			}
		}
	}
}

// TestMarginalAfterMutations answers every level-1–3 pattern by batch
// after each kind of mutation, at 1 and 3 shards and in both key
// layouts, and checks each answer against the brute-force sum over the
// live rows. The bases' tables are built by the first batch, so the
// later ones read a table under a pending delta, and after the
// compaction the new bases' tables.
func TestMarginalAfterMutations(t *testing.T) {
	compact := slices.Repeat([]int{2}, 17)
	for _, cards := range [][]int{{3, 2, 4, 2, 3, 5}, compact} {
		for _, shards := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(len(cards) + shards)))
			ps := lowPatterns(cards)
			check := func(e *Engine, live map[string]int64, step string) {
				t.Helper()
				got, err := e.CoverageBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range ps {
					var want int64
					for k, n := range live {
						if p.Matches([]uint8(k)) {
							want += n
						}
					}
					if got[i] != want {
						t.Fatalf("%d attributes, %d shards, after %s: cov(%v) = %d, live rows say %d",
							len(cards), shards, step, p, got[i], want)
					}
				}
				if marginalBytes(e) == 0 {
					t.Fatalf("%d attributes, %d shards, after %s: no base has a marginal table", len(cards), shards, step)
				}
			}

			e := NewSharded(testSchema(t, cards), shards, Options{CompactMinDistinct: 64})
			live := map[string]int64{}
			rows := randomRows(rng, cards, 500)
			if err := e.Append(rows); err != nil {
				t.Fatal(err)
			}
			applyRef(live, rows, 1)
			e.Oracle() // fold the load into the bases
			check(e, live, "the load")

			rows = randomRows(rng, cards, 20)
			if err := e.Append(rows); err != nil {
				t.Fatal(err)
			}
			applyRef(live, rows, 1)
			if e.Stats().DeltaDistinct == 0 {
				t.Fatal("precondition: the append should leave a pending delta")
			}
			check(e, live, "an append")

			rows = drawDeletableEngine(rng, e, 40)
			if err := e.Delete(rows); err != nil {
				t.Fatal(err)
			}
			applyRef(live, rows, -1)
			check(e, live, "a delete")

			// Appends never compact; the read after each one rebuilds
			// the cores its delta has carried past the threshold.
			before := e.Stats().Compactions
			for e.Stats().Compactions == before {
				rows = randomRows(rng, cards, 100)
				if err := e.Append(rows); err != nil {
					t.Fatal(err)
				}
				applyRef(live, rows, 1)
				if _, err := e.Coverage(pattern.All(len(cards))); err != nil {
					t.Fatal(err)
				}
			}
			check(e, live, "a compaction")

			// A window set on an empty engine evicts in arrival order.
			w := NewSharded(testSchema(t, cards), shards, Options{})
			w.SetWindow(300)
			rows = randomRows(rng, cards, 300)
			if err := w.Append(rows); err != nil {
				t.Fatal(err)
			}
			w.Oracle()
			more := randomRows(rng, cards, 50)
			if err := w.Append(more); err != nil {
				t.Fatal(err)
			}
			if w.Stats().Evictions == 0 {
				t.Fatal("precondition: the append should evict")
			}
			live = map[string]int64{}
			applyRef(live, append(rows[50:], more...), 1)
			check(w, live, "a window eviction")
		}
	}
}

// TestResidentBytesCountsMarginal: one low-level coverage batch raises
// ResidentBytes by exactly the bases' marginal tables, each of
// Σ_{|S|≤3} ∏ cᵢ int64 cells and Σ_{k≤3} C(d,k) int32 offsets, and a
// compaction, which replaces the bases, drops them again.
func TestResidentBytesCountsMarginal(t *testing.T) {
	cards := []int{3, 2, 4, 2, 3, 5}
	var cells, subsets int64
	for i := range cards {
		cells += int64(cards[i])
		subsets++
		for j := i + 1; j < len(cards); j++ {
			cells += int64(cards[i] * cards[j])
			subsets++
			for k := j + 1; k < len(cards); k++ {
				cells += int64(cards[i] * cards[j] * cards[k])
				subsets++
			}
		}
	}
	table := 8*cells + 4*subsets
	for _, shards := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(shards)))
		e := NewSharded(testSchema(t, cards), shards, Options{})
		if err := e.Append(randomRows(rng, cards, 300)); err != nil {
			t.Fatal(err)
		}
		e.Oracle()
		before := e.ResidentBytes()
		p := pattern.All(len(cards))
		p[2] = 1
		if _, err := e.CoverageBatch([]pattern.Pattern{p}); err != nil {
			t.Fatal(err)
		}
		after := e.ResidentBytes()
		if want := int64(shards) * table; after-before != want {
			t.Errorf("%d shards: a level-1 batch raised ResidentBytes by %d, want %d tables of %d bytes",
				shards, after-before, shards, table)
		}
		for i, sh := range e.Stats().Shards {
			if sh.MarginalBytes != table {
				t.Errorf("%d shards: shard %d reports %d marginal bytes, want %d", shards, i, sh.MarginalBytes, table)
			}
		}
		if err := e.Append(randomRows(rng, cards, 5)); err != nil {
			t.Fatal(err)
		}
		e.Oracle() // the fold compacts every core with a pending delta
		if n := marginalBytes(e); n != 0 {
			t.Errorf("%d shards: %d marginal bytes after the compaction, want 0", shards, n)
		}
		var store int64
		for _, sh := range e.Stats().Shards {
			store += sh.StoreBytes
		}
		if rb := e.ResidentBytes(); rb != store {
			t.Errorf("%d shards: ResidentBytes = %d after the compaction, store bytes alone %d", shards, rb, store)
		}
	}
}
