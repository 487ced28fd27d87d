package engine

import (
	"math/rand"
	"slices"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// walkCase draws a schema, rows, τ and a level bound for
// FuzzWalkMatchesReference. Up to 16 attributes use the raw key layout
// and more the bit-compact one; the straddle draw is 20 attributes
// whose 128 key bits split one field, with fields after it, across the
// two key words. Values are skewed towards
// the first two of each attribute, so the covered region reaches past
// level 1 even on the wide schemas. The level bound stays at 3 or below
// past 8 attributes, where an unbounded walk at a low τ would take
// seconds.
func walkCase(seed int64, dim, nrows, tauB, levelB uint8, straddle bool) (cards []int, rows [][]uint8, opts mup.Options) {
	rng := rand.New(rand.NewSource(seed))
	if straddle {
		// Word 0 takes eight 7-bit fields and a 5-bit one (61 bits),
		// word 1 eight 7-bit fields and a 4-bit one (60); the next 5-bit
		// field fits neither and straddles them, and the binary field
		// after it fills word 1.
		for _, last := range []int{16, 8} {
			for range 8 {
				cards = append(cards, 64+rng.Intn(64))
			}
			cards = append(cards, last+rng.Intn(last))
		}
		cards = append(cards, 16+rng.Intn(16), 2)
	} else {
		cards = make([]int, 3+int(dim)%22)
		for i := range cards {
			cards[i] = 2 + rng.Intn(3)
		}
	}
	rows = make([][]uint8, 1+int(nrows))
	for r := range rows {
		row := make([]uint8, len(cards))
		for i, c := range cards {
			if rng.Intn(4) > 0 {
				row[i] = uint8(rng.Intn(2))
			} else {
				row[i] = uint8(rng.Intn(c))
			}
		}
		rows[r] = row
	}
	opts.Threshold = 1 + int64(tauB)%int64(len(rows)+1)
	if d := len(cards); d <= 8 {
		opts.MaxLevel = int(levelB) % (d + 1) // 0: unbounded
	} else {
		opts.MaxLevel = 1 + int(levelB)%3
	}
	return cards, rows, opts
}

// FuzzWalkMatchesReference runs the walk, mup.ParallelPatternBreaker,
// on schemas past the pattern cube's bound as well as under it, in both
// key layouts and with a field straddling the key words: at 1 and 3
// shards and 1 and 2 workers it must find the reference's MUPs with
// their exact coverage (mup.Naive where the lattice has at most 2²²
// patterns, mup.DeepDiver past that), and issue the same number of
// coverage probes whatever the shard and worker counts.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(120), uint8(9), uint8(0), false)   // 6 attributes, unbounded
	f.Add(int64(2), uint8(10), uint8(200), uint8(30), uint8(2), false) // 13: raw layout, past the cube bound
	f.Add(int64(3), uint8(21), uint8(150), uint8(4), uint8(1), false)  // 24: compact layout
	f.Add(int64(4), uint8(0), uint8(180), uint8(39), uint8(1), true)   // straddling field
	f.Add(int64(5), uint8(14), uint8(255), uint8(200), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, dim, nrows, tauB, levelB uint8, straddle bool) {
		cards, rows, opts := walkCase(seed, dim, nrows, tauB, levelB, straddle)
		schema := testSchema(t, cards)
		ds := dataset.New(schema)
		for _, r := range rows {
			ds.MustAppend(r)
		}
		reference, name := mup.Naive, "naive"
		if pattern.TotalPatterns(cards) > 1<<22 {
			reference, name = mup.DeepDiver, "deepdiver"
		}
		var want *mup.Result
		probes := int64(-1)
		for _, shards := range []int{1, 3} {
			oracle := NewFromDataset(ds, Options{Shards: shards}).Oracle()
			if want == nil {
				var err error
				if want, err = reference(oracle, opts); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2} {
				got, err := mup.ParallelPatternBreaker(oracle, mup.ParallelOptions{Options: opts, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.MUPs) != len(want.MUPs) {
					t.Fatalf("cards %v τ=%d level ≤ %d shards=%d workers=%d: %d MUPs, %s finds %d",
						cards, opts.Threshold, opts.MaxLevel, shards, workers, len(got.MUPs), name, len(want.MUPs))
				}
				for i := range got.MUPs {
					if !got.MUPs[i].Equal(want.MUPs[i]) {
						t.Fatalf("cards %v τ=%d shards=%d workers=%d: MUPs[%d] = %v, %s's is %v",
							cards, opts.Threshold, shards, workers, i, got.MUPs[i], name, want.MUPs[i])
					}
				}
				if !slices.Equal(got.Cov, want.Cov) {
					t.Fatalf("cards %v τ=%d shards=%d workers=%d: Cov %v, %s's %v",
						cards, opts.Threshold, shards, workers, got.Cov, name, want.Cov)
				}
				if probes < 0 {
					probes = got.Stats.CoverageProbes
				} else if got.Stats.CoverageProbes != probes {
					t.Fatalf("cards %v τ=%d shards=%d workers=%d: %d coverage probes, %d at 1 shard and 1 worker",
						cards, opts.Threshold, shards, workers, got.Stats.CoverageProbes, probes)
				}
			}
		}
	})
}
