package mup

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// allAlgorithms enumerates the algorithm constructors under test.
var allAlgorithms = []struct {
	name string
	run  func(index.Oracle, Options) (*Result, error)
}{
	{"naive", Naive},
	{"pattern-breaker", PatternBreaker},
	{"pattern-combiner", PatternCombiner},
	{"deepdiver", DeepDiver},
	{"apriori", Apriori},
}

// example1 is the paper's Example 1: binary A1..A3 with tuples
// 010, 001, 000, 011, 001; with τ = 1 the only MUP is 1XX.
func example1(t testing.TB) *index.Index {
	ds := dataset.New(dataset.BinarySchema("a", 3))
	for _, row := range [][]uint8{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}, {0, 1, 1}, {0, 0, 1}} {
		ds.MustAppend(row)
	}
	return index.Build(ds)
}

func keys(mups []pattern.Pattern) []string {
	out := make([]string, len(mups))
	for i, p := range mups {
		out[i] = p.String()
	}
	return out
}

func TestExample1AllAlgorithms(t *testing.T) {
	ix := example1(t)
	for _, alg := range allAlgorithms {
		res, err := alg.run(ix, Options{Threshold: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if got := keys(res.MUPs); len(got) != 1 || got[0] != "1XX" {
			t.Errorf("%s: MUPs = %v, want [1XX]", alg.name, got)
		}
		if err := Verify(ix, 1, res.MUPs); err != nil {
			t.Errorf("%s: Verify: %v", alg.name, err)
		}
		if res.Stats.Algorithm == "" {
			t.Errorf("%s: missing algorithm name in stats", alg.name)
		}
	}
}

func TestTheorem1DiagonalConstruction(t *testing.T) {
	// Theorem 1: the diagonal dataset with τ = n/2 + 1 has exactly
	// n + C(n, n/2) MUPs. For n = 6: 6 + 20 = 26.
	const n = 6
	ix := index.Build(datagen.Diagonal(n))
	tau := int64(n/2 + 1)
	want := 6 + 20
	for _, alg := range allAlgorithms {
		res, err := alg.run(ix, Options{Threshold: tau})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if len(res.MUPs) != want {
			t.Errorf("%s: %d MUPs, want %d", alg.name, len(res.MUPs), want)
		}
		// Shape check: n MUPs at level 1 (single deterministic 1),
		// C(n, n/2) at level n/2 (all-zero deterministic elements).
		hist := res.LevelHistogram(n)
		if hist[1] != n {
			t.Errorf("%s: %d level-1 MUPs, want %d", alg.name, hist[1], n)
		}
		if hist[n/2] != 20 {
			t.Errorf("%s: %d level-%d MUPs, want 20", alg.name, hist[n/2], n/2)
		}
		if err := Verify(ix, tau, res.MUPs); err != nil {
			t.Errorf("%s: Verify: %v", alg.name, err)
		}
	}
}

func TestVertexCoverReductionMUPs(t *testing.T) {
	// Theorem 2 reduction for a 5-cycle: with τ = 3 the MUPs are
	// exactly the per-edge single-1 patterns.
	g := datagen.Graph{V: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}}
	ds, err := datagen.VertexCoverReduction(g)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(ds)
	for _, alg := range allAlgorithms {
		res, err := alg.run(ix, Options{Threshold: 3})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if len(res.MUPs) != len(g.Edges) {
			t.Fatalf("%s: %d MUPs, want %d (one per edge); got %v", alg.name, len(res.MUPs), len(g.Edges), keys(res.MUPs))
		}
		for _, p := range res.MUPs {
			if p.Level() != 1 {
				t.Errorf("%s: MUP %v has level %d, want 1", alg.name, p, p.Level())
			}
			ones := 0
			for _, v := range p {
				if v == 1 {
					ones++
				}
			}
			if ones != 1 {
				t.Errorf("%s: MUP %v is not a single-1 pattern", alg.name, p)
			}
		}
	}
}

func TestThresholdEdgeCases(t *testing.T) {
	ix := example1(t)
	for _, alg := range allAlgorithms {
		// τ ≤ 0: everything covered, no MUPs.
		res, err := alg.run(ix, Options{Threshold: 0})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if len(res.MUPs) != 0 {
			t.Errorf("%s: τ=0 gave %v, want none", alg.name, keys(res.MUPs))
		}
		// τ > n: the root itself is uncovered and is the single MUP.
		res, err = alg.run(ix, Options{Threshold: 100})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if got := keys(res.MUPs); len(got) != 1 || got[0] != "XXX" {
			t.Errorf("%s: τ>n gave %v, want [XXX]", alg.name, got)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := dataset.New(dataset.BinarySchema("a", 3))
	ix := index.Build(ds)
	for _, alg := range allAlgorithms {
		res, err := alg.run(ix, Options{Threshold: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if got := keys(res.MUPs); len(got) != 1 || got[0] != "XXX" {
			t.Errorf("%s: empty dataset gave %v, want [XXX]", alg.name, got)
		}
	}
}

func TestMaxLevelBound(t *testing.T) {
	// Level-bounded discovery must equal the unbounded MUP set
	// filtered to levels ≤ bound (Fig 16 semantics).
	ds := datagen.Zipf(300, []int{2, 3, 2, 2, 3}, 1.2, 42)
	ix := index.Build(ds)
	full, err := Naive(ix, Options{Threshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	for bound := 1; bound <= 5; bound++ {
		var want []string
		for _, p := range full.MUPs {
			if p.Level() <= bound {
				want = append(want, p.String())
			}
		}
		for _, alg := range allAlgorithms {
			res, err := alg.run(ix, Options{Threshold: 12, MaxLevel: bound})
			if err != nil {
				t.Fatalf("%s bound %d: %v", alg.name, bound, err)
			}
			got := keys(res.MUPs)
			if len(got) != len(want) {
				t.Errorf("%s bound %d: %d MUPs, want %d", alg.name, bound, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s bound %d: MUPs[%d] = %s, want %s", alg.name, bound, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQuickAllAlgorithmsAgree(t *testing.T) {
	// The gold property: on random small datasets all five algorithms
	// produce the identical MUP set, which also passes Verify.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(4)
		cards := make([]int, d)
		for i := range cards {
			cards[i] = 2 + r.Intn(2)
		}
		n := r.Intn(120)
		var ds *dataset.Dataset
		if r.Intn(2) == 0 {
			ds = datagen.Uniform(n, cards, r.Int63())
		} else {
			ds = datagen.Zipf(n, cards, 1.5, r.Int63())
		}
		ix := index.Build(ds)
		tau := int64(1 + r.Intn(10))
		opts := Options{Threshold: tau}
		ref, err := Naive(ix, opts)
		if err != nil {
			t.Logf("naive: %v", err)
			return false
		}
		if err := Verify(ix, tau, ref.MUPs); err != nil {
			t.Logf("verify naive: %v", err)
			return false
		}
		want := keys(ref.MUPs)
		for _, alg := range allAlgorithms[1:] {
			res, err := alg.run(ix, opts)
			if err != nil {
				t.Logf("%s: %v", alg.name, err)
				return false
			}
			got := keys(res.MUPs)
			if len(got) != len(want) {
				t.Logf("seed %d τ=%d: %s found %d MUPs, naive %d\n got: %v\nwant: %v",
					seed, tau, alg.name, len(got), len(want), got, want)
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d τ=%d: %s MUPs[%d] = %s, want %s", seed, tau, alg.name, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParallelPatternBreakerMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := datagen.Zipf(600, []int{2, 3, 2, 2, 3, 2}, 1.4, seed)
		ix := index.Build(ds)
		for _, tau := range []int64{1, 5, 25, 200} {
			want, err := Naive(ix, Options{Threshold: tau})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 7} {
				got, err := ParallelPatternBreaker(ix, ParallelOptions{
					Options: Options{Threshold: tau},
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.MUPs) != len(want.MUPs) {
					t.Fatalf("seed %d τ=%d workers=%d: %d MUPs, want %d",
						seed, tau, workers, len(got.MUPs), len(want.MUPs))
				}
				for i := range got.MUPs {
					if !got.MUPs[i].Equal(want.MUPs[i]) || got.Cov[i] != want.Cov[i] {
						t.Fatalf("seed %d τ=%d workers=%d: MUPs[%d] = %v cov %d, want %v cov %d",
							seed, tau, workers, i, got.MUPs[i], got.Cov[i], want.MUPs[i], want.Cov[i])
					}
				}
				if got.Stats.CoverageProbes == 0 && len(want.MUPs) > 0 {
					t.Errorf("parallel stats not aggregated")
				}
			}
		}
	}
}

func TestParallelPatternBreakerMaxLevel(t *testing.T) {
	ds := datagen.Zipf(400, []int{2, 2, 3, 2, 2}, 1.3, 9)
	ix := index.Build(ds)
	want, err := Naive(ix, Options{Threshold: 15, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParallelPatternBreaker(ix, ParallelOptions{Options: Options{Threshold: 15, MaxLevel: 2}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MUPs) != len(want.MUPs) {
		t.Fatalf("%d MUPs, want %d", len(got.MUPs), len(want.MUPs))
	}
	for i := range got.MUPs {
		if !got.MUPs[i].Equal(want.MUPs[i]) {
			t.Fatalf("MUPs[%d] = %v, want %v", i, got.MUPs[i], want.MUPs[i])
		}
	}
}

func TestVerifyCatchesBadInputs(t *testing.T) {
	ix := example1(t)
	cards := ix.Cards()
	parse := func(s string) pattern.Pattern {
		p, err := pattern.Parse(s, cards)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		mups []pattern.Pattern
	}{
		{"covered pattern", []pattern.Pattern{parse("0XX")}},
		{"non-maximal pattern", []pattern.Pattern{parse("10X")}},
		{"duplicate", []pattern.Pattern{parse("1XX"), parse("1XX")}},
		{"invalid value", []pattern.Pattern{{9, pattern.Wildcard, pattern.Wildcard}}},
	}
	for _, tc := range cases {
		if err := Verify(ix, 1, tc.mups); err == nil {
			t.Errorf("%s: Verify passed, want error", tc.name)
		}
	}
	if err := Verify(ix, 1, []pattern.Pattern{parse("1XX")}); err != nil {
		t.Errorf("correct MUP set rejected: %v", err)
	}
}

func TestNaiveRefusesHugePatternSpace(t *testing.T) {
	ds := dataset.New(dataset.BinarySchema("a", 30))
	ds.MustAppend(make([]uint8, 30))
	if _, err := Naive(index.Build(ds), Options{Threshold: 1}); err == nil {
		t.Error("Naive accepted a 3^30 pattern space")
	}
}

func TestCombinerRefusesHugeComboSpace(t *testing.T) {
	ds := dataset.New(dataset.BinarySchema("a", 30))
	ds.MustAppend(make([]uint8, 30))
	if _, err := PatternCombiner(index.Build(ds), Options{Threshold: 1}); err == nil {
		t.Error("PatternCombiner accepted a 2^30 combination space")
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := datagen.Zipf(500, []int{2, 2, 3, 2}, 1.3, 3)
	ix := index.Build(ds)
	for _, alg := range allAlgorithms {
		res, err := alg.run(ix, Options{Threshold: 20})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if res.Stats.NodesVisited == 0 {
			t.Errorf("%s: NodesVisited = 0", alg.name)
		}
		if res.Stats.CoverageProbes == 0 {
			t.Errorf("%s: CoverageProbes = 0", alg.name)
		}
	}
}

func TestLevelHistogram(t *testing.T) {
	ix := example1(t)
	res, err := DeepDiver(ix, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := res.LevelHistogram(3)
	if len(hist) != 4 || hist[1] != 1 || hist[0]+hist[2]+hist[3] != 0 {
		t.Errorf("LevelHistogram = %v, want [0 1 0 0]", hist)
	}
}

func TestHigherCardinalityAgreement(t *testing.T) {
	// BlueNile-shaped cardinalities exercise the wide-bottom case the
	// paper highlights for PATTERN-COMBINER (Fig 13).
	ds := datagen.BlueNile(2000, 11)
	proj, err := ds.Project([]int{1, 4, 5, 6}) // cut, polish, symmetry, fluorescence
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(proj)
	opts := Options{Threshold: 25}
	ref, err := Naive(ix, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := keys(ref.MUPs)
	for _, alg := range allAlgorithms[1:] {
		res, err := alg.run(ix, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		got := keys(res.MUPs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d MUPs, want %d", alg.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: MUPs[%d] = %s, want %s", alg.name, i, got[i], want[i])
			}
		}
	}
}
