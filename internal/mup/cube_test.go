package mup

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/index"
)

// sameResult reports the first difference between two results in MUPs
// (order included) and Cov.
func sameResult(got, want *Result) error {
	if len(got.MUPs) != len(want.MUPs) {
		return fmt.Errorf("%d MUPs, want %d:\n got %v\nwant %v", len(got.MUPs), len(want.MUPs), keys(got.MUPs), keys(want.MUPs))
	}
	for i := range got.MUPs {
		if !got.MUPs[i].Equal(want.MUPs[i]) {
			return fmt.Errorf("MUPs[%d] = %v, want %v", i, got.MUPs[i], want.MUPs[i])
		}
	}
	if !slices.Equal(got.Cov, want.Cov) {
		return fmt.Errorf("Cov = %v, want %v", got.Cov, want.Cov)
	}
	return nil
}

// FuzzPatternCube checks the cold Search on every path against the
// naïve definition: a random schema of d ≤ 8 attributes with
// cardinalities 1–6 (drawn until the lattice would pass 2¹⁵ patterns,
// so Naive stays fast), a random multiset of rows (empty allowed), τ
// anywhere in 0 … Total+1 and MaxLevel in 0 … d+1. The cube is also run
// directly at 1–4 workers, so its chunk seams are exercised on lattices
// far below the 64 Ki cells per worker Search asks for.
func FuzzPatternCube(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(40), uint16(2), uint8(0))
	f.Add(int64(7), uint8(8), uint16(300), uint16(9), uint8(2))
	f.Add(int64(42), uint8(1), uint16(0), uint16(1), uint8(1))
	f.Add(int64(5), uint8(5), uint16(200), uint16(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, rows uint16, tauDraw uint16, levelDraw uint8) {
		rng := rand.New(rand.NewSource(seed))
		var attrs []dataset.Attribute
		for j, cells := 0, 1; j < 1+int(dim)%8; j++ {
			card := 1 + rng.Intn(6)
			if cells *= card + 1; cells > 1<<15 {
				break
			}
			vals := make([]string, card)
			for v := range vals {
				vals[v] = fmt.Sprint(v)
			}
			attrs = append(attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", j), Values: vals})
		}
		schema := dataset.MustSchema(attrs)
		cards := schema.Cards()
		counts := make(map[string]int64)
		for i := 0; i < int(rows)%512; i++ {
			c := make([]uint8, len(cards))
			for j, card := range cards {
				// The product of two draws skews towards value 0, so combinations repeat.
				c[j] = uint8(rng.Float64() * rng.Float64() * float64(card))
			}
			counts[string(c)]++
		}
		ix := index.BuildFromCounts(schema, counts)
		opts := Options{
			Threshold: int64(tauDraw) % (ix.Total() + 2),
			MaxLevel:  int(levelDraw) % (len(cards) + 2),
		}
		want, err := Naive(ix, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Search(ix, ParallelOptions{Options: opts, Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("cards %v, %d rows, %+v, Search by %s: %v", cards, ix.Total(), opts, got.Stats.Algorithm, err)
		}
		if opts.Threshold <= 0 || opts.Threshold > ix.Total() {
			return
		}
		cells := cubeCells(cards)
		for workers := 1; workers <= 4; workers++ {
			got := patternCube(ix, cells, opts, workers)
			if err := sameResult(got, want); err != nil {
				t.Fatalf("cards %v, %d rows, %+v, cube at %d workers: %v", cards, ix.Total(), opts, workers, err)
			}
			if got.Stats.CoverageProbes != 0 || got.Stats.NodesVisited != int64(cells) {
				t.Fatalf("cube stats %+v, want 0 probes and %d cells", got.Stats, cells)
			}
		}
	})
}

// TestSearchDispatch pins which path Search takes: the answer is the
// same everywhere, so only Stats tells them apart.
func TestSearchDispatch(t *testing.T) {
	narrow := index.Build(datagen.Zipf(500, []int{2, 3, 4}, 1.2, 1))
	// 7^8 ≈ 5.8 M patterns: past the cube bound.
	wide := index.Build(datagen.Zipf(500, []int{6, 6, 6, 6, 6, 6, 6, 6}, 1.2, 1))
	for _, tc := range []struct {
		name string
		ix   *index.Index
		tau  int64
		algo string
	}{
		{"narrow", narrow, 5, "pattern-cube"},
		{"narrow τ=0", narrow, 0, "all-covered"},
		{"narrow τ>rows", narrow, 501, "uncovered-root"},
		{"wide", wide, 5, "parallel-pattern-breaker"},
		{"wide τ>rows", wide, 501, "uncovered-root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			popts := ParallelOptions{Options: Options{Threshold: tc.tau}, Workers: 2}
			got, err := Search(tc.ix, popts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Algorithm != tc.algo {
				t.Fatalf("Search ran %q, want %q", got.Stats.Algorithm, tc.algo)
			}
			if tc.algo != "parallel-pattern-breaker" && got.Stats.CoverageProbes != 0 {
				t.Errorf("%s issued %d coverage probes, want 0", tc.algo, got.Stats.CoverageProbes)
			}
			want, err := ParallelPatternBreaker(tc.ix, popts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCubeBounds(t *testing.T) {
	if got := cubeCells([]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}); got != 1<<21 {
		t.Errorf("21 unary attributes: %d cells, want 2²¹", got)
	}
	if got := cubeCells([]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}); got != 0 {
		t.Errorf("22 unary attributes: %d cells, want 0 (past the bound)", got)
	}
	if !ancestorCubeFits(20) || ancestorCubeFits(21) || ancestorCubeFits(128) {
		t.Error("the ancestor cube must fit at d = 20 and not past it")
	}
}

// BenchmarkColdSearch prices the pattern cube against the walk on the
// corpus cells under the cube bound, at the sizes and thresholds of the
// benchmark's audit workload: AirBnB-shaped over 13 binary attributes
// (1.59 M patterns) and BlueNile (380 k) at 20 000 rows, and COMPAS
// (600) at its 6 889. The audit's two cells past the bound, AirBnB over
// 15 binary attributes (14.3 M patterns) at 10 000 rows and Zipf over
// ten attributes (6.35 M) at 20 000, run the walk alone: Search
// dispatches them to it.
func BenchmarkColdSearch(b *testing.B) {
	compas, _ := datagen.COMPAS(6889, 1)
	type path struct {
		name string
		run  func(index.Oracle, ParallelOptions) (*Result, error)
	}
	both := []path{{"cube", Search}, {"walk", ParallelPatternBreaker}}
	walk := both[1:]
	cells := []struct {
		name  string
		ix    *index.Index
		taus  []int64
		paths []path
	}{
		{"airbnb13", index.Build(datagen.AirBnB(20000, 13, 1)), []int64{100, 400}, both},
		{"bluenile7", index.Build(datagen.BlueNile(20000, 1)), []int64{10, 40}, both},
		{"compas", index.Build(compas), []int64{10}, both},
		{"airbnb15", index.Build(datagen.AirBnB(10000, 15, 1)), []int64{800}, walk},
		{"zipf10", index.Build(datagen.Zipf(20000, []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 1.2, 1)), []int64{400}, walk},
	}
	for _, c := range cells {
		for _, tau := range c.taus {
			popts := ParallelOptions{Options: Options{Threshold: tau}}
			for _, path := range c.paths {
				b.Run(fmt.Sprintf("%s/tau=%d/%s", c.name, tau, path.name), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						if _, err := path.run(c.ix, popts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
