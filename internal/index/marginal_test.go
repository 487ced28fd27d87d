package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// TestMarginalLevel pins the level rule on shapes at both budgets:
// the level is the largest of 1–3 whose cells and offsets fit
// marginalMaxBytes and whose build fits marginalMaxAdds, and it agrees
// with the rule enumerated subset by subset.
func TestMarginalLevel(t *testing.T) {
	binary := func(d int) []int { return slices.Repeat([]int{2}, d) }
	for _, tc := range []struct {
		name  string
		cards []int
		nDist int
		want  int
	}{
		{"airbnb13", binary(13), 8192, 3},
		{"bluenile7", []int{10, 4, 7, 8, 3, 3, 5}, 40000, 3},
		{"zipf10", []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 50000, 3},
		{"one attribute", []int{7}, 7, 1},
		{"two attributes", []int{254, 254}, 1000, 2},
		{"empty", binary(5), 0, 3},
		{"32 binary", binary(32), 3000, 3},
		{"32 binary, build past the budget", binary(32), 4000, 2},
		{"64 binary, cells past the budget", binary(64), 1, 2},
		{"64 binary, build past the budget", binary(64), 10000, 1},
		{"25 × 31 values", slices.Repeat([]int{31}, 25), 100, 1},
		{"three 254-value attributes", []int{254, 254, 254}, 100, 1},
		{"no level fits", slices.Repeat([]int{254}, 600), 1, 0},
	} {
		if got := marginalLevel(tc.cards, tc.nDist); got != tc.want {
			t.Errorf("%s: level %d, want %d", tc.name, got, tc.want)
		}
		if got := wantMarginalLevel(tc.cards, tc.nDist); got != tc.want {
			t.Errorf("%s: enumerated rule says %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestConcurrentMarginalBuild races the build: eight goroutines make
// their first Pool.CoverageBatch call at once while four fresh Probers
// read. Every answer, whether from the table or the kernel, must be
// exact; every goroutine that saw a table saw the one the index keeps,
// so it was built once, and later batches keep it. Run it under -race.
func TestConcurrentMarginalBuild(t *testing.T) {
	ix := Build(datagen.AirBnB(20000, 13, 5))
	cards := ix.Cards()
	rng := rand.New(rand.NewSource(1))
	ps := make([]pattern.Pattern, 256)
	for i := range ps {
		p := pattern.All(len(cards))
		for _, a := range rng.Perm(len(cards))[:1+rng.Intn(6)] {
			p[a] = uint8(rng.Intn(cards[a]))
		}
		ps[i] = p
	}
	want := make([]int64, len(ps))
	kernel := ix.NewProber()
	kernel.kernelOnly = true
	kernel.CoverageBatch(ps, math.MaxInt64, want)

	pool := ix.NewPool()
	start := make(chan struct{})
	errs := make(chan error, 12)
	seen := make([]*marginal, 12)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			out := make([]int64, len(ps))
			for round := 0; round < 20; round++ {
				if g < 8 {
					pool.CoverageBatch(ps, out)
				} else {
					pr := ix.NewProber()
					for i, p := range ps {
						out[i] = pr.Coverage(p)
					}
				}
				if !slices.Equal(out, want) {
					errs <- fmt.Errorf("goroutine %d, round %d: answers differ from the kernel's", g, round)
					return
				}
				if m := ix.marg.Load(); m != nil && seen[g] == nil {
					seen[g] = m
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := ix.marg.Load()
	if m == nil || m.level != 3 {
		t.Fatalf("after the race the index holds table %v, want one of level 3", m)
	}
	for g, sm := range seen {
		if sm != nil && sm != m {
			t.Errorf("goroutine %d saw a table the index no longer holds: it was built twice", g)
		}
	}
	pool.CoverageBatch(ps, make([]int64, len(ps)))
	if ix.marg.Load() != m {
		t.Fatal("a later batch replaced the table")
	}
	if got, want := ix.MarginalBytes(), 8*int64(len(m.cells))+4*int64(len(m.offs)); got != want {
		t.Fatalf("MarginalBytes = %d, want %d", got, want)
	}
}

// BenchmarkMarginalBuild prices one marginal table build at the shapes
// of the benchmark's probe workload, one of two shards of 100 000 rows
// each: the one-time cost the first /coverage batch on a base pays.
func BenchmarkMarginalBuild(b *testing.B) {
	for _, tn := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"airbnb13", datagen.AirBnB(50000, 13, 42)},
		{"bluenile7", datagen.BlueNile(50000, 42)},
		{"zipf10", datagen.Zipf(50000, []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 1.2, 42)},
	} {
		b.Run(tn.name, func(b *testing.B) {
			ix := Build(tn.ds)
			level := marginalLevel(ix.Cards(), ix.NumDistinct())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildMarginal(ix, level)
			}
			b.ReportMetric(float64(ix.NumDistinct()), "combos")
			b.ReportMetric(float64(level), "level")
		})
	}
}
