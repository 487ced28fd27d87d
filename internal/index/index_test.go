package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"coverage/internal/bitvec"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// example1 is the paper's Example 1 dataset.
func example1(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.BinarySchema("a", 3))
	for _, row := range [][]uint8{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}, {0, 1, 1}, {0, 0, 1}} {
		ds.MustAppend(row)
	}
	return ds
}

func TestCoverageExample1(t *testing.T) {
	ds := example1(t)
	ix := Build(ds)
	if ix.Total() != 5 {
		t.Fatalf("Total = %d, want 5", ix.Total())
	}
	if ix.NumDistinct() != 4 {
		t.Fatalf("NumDistinct = %d, want 4", ix.NumDistinct())
	}
	tests := []struct {
		p    string
		want int64
	}{
		{"XXX", 5},
		{"0X1", 3}, // Appendix A worked example
		{"1XX", 0},
		{"X0X", 3},
		{"001", 2},
		{"010", 1},
		{"111", 0},
	}
	pr := ix.NewProber()
	for _, tc := range tests {
		p, err := pattern.Parse(tc.p, ds.Cards())
		if err != nil {
			t.Fatal(err)
		}
		if got := pr.Coverage(p); got != tc.want {
			t.Errorf("cov(%s) = %d, want %d", tc.p, got, tc.want)
		}
		if got := ix.Coverage(p); got != tc.want {
			t.Errorf("Index.Coverage(%s) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if pr.Probes() != int64(len(tests)) {
		t.Errorf("Probes = %d, want %d", pr.Probes(), len(tests))
	}
}

func TestComboCount(t *testing.T) {
	ix := Build(example1(t))
	if got := ix.ComboCount([]uint8{0, 0, 1}); got != 2 {
		t.Errorf("ComboCount(001) = %d, want 2", got)
	}
	if got := ix.ComboCount([]uint8{1, 1, 1}); got != 0 {
		t.Errorf("ComboCount(111) = %d, want 0", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	ix := Build(example1(t))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	ix.Coverage(pattern.All(4))
}

func TestMatchVector(t *testing.T) {
	ds := example1(t)
	ix := Build(ds)
	dd := ds.Distinct()
	p, err := pattern.Parse("X0X", ds.Cards())
	if err != nil {
		t.Fatal(err)
	}
	v := bitvec.New(ix.NumDistinct())
	ix.MatchVector(p, v)
	for k, combo := range dd.Combos {
		if v.Get(k) != p.Matches(combo) {
			t.Errorf("MatchVector bit %d (%v) = %v, want %v", k, combo, v.Get(k), p.Matches(combo))
		}
	}
	root := bitvec.New(ix.NumDistinct())
	ix.MatchVector(pattern.All(3), root)
	if root.Count() != ix.NumDistinct() {
		t.Errorf("root MatchVector count = %d, want %d", root.Count(), ix.NumDistinct())
	}
}

// randomDataset builds a dataset with random rows over d random
// low-cardinality attributes.
func randomDataset(r *rand.Rand, d int) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		c := 2 + r.Intn(3)
		values := make([]string, c)
		for v := range values {
			values[v] = string(rune('a' + v))
		}
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("A%d", i), Values: values}
	}
	ds := dataset.New(dataset.MustSchema(attrs))
	n := r.Intn(200)
	row := make([]uint8, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = uint8(r.Intn(attrs[j].Cardinality()))
		}
		ds.MustAppend(row)
	}
	return ds
}

// TestQuickCoverageEqualsLiteralScan checks cov(P) against a literal
// row scan under both key layouts of the full-combo table: the
// byte-aligned raw one (1–5 attributes) and the bit-compact one (17–40
// attributes of 2–3 bits each, past the raw layout's 16). Every third
// pattern is a stored row in full, so the full-combo lookup is probed
// with hits, not only with absent keys.
func TestQuickCoverageEqualsLiteralScan(t *testing.T) {
	for _, tc := range []struct {
		name           string
		minDim, maxDim int
		raw            bool
	}{
		{"raw", 1, 5, true},
		{"compact", pattern.RawKeyDim + 1, 40, false},
	} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			ds := randomDataset(r, tc.minDim+r.Intn(tc.maxDim-tc.minDim+1))
			ix := Build(ds)
			if ix.codec.Raw() != tc.raw {
				t.Fatalf("%s: raw key layout = %v, want %v", tc.name, ix.codec.Raw(), tc.raw)
			}
			pr := ix.NewProber()
			cards := ds.Cards()
			for trial := 0; trial < 30; trial++ {
				p := make(pattern.Pattern, ds.Dim())
				if trial%3 == 0 && ds.NumRows() > 0 {
					copy(p, ds.Row(r.Intn(ds.NumRows())))
				} else {
					for i := range p {
						if r.Intn(2) == 0 {
							p[i] = pattern.Wildcard
						} else {
							p[i] = uint8(r.Intn(cards[i]))
						}
					}
				}
				if pr.Coverage(p) != ds.CountMatches(p) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := dataset.New(dataset.BinarySchema("a", 3))
	ix := Build(ds)
	if ix.Total() != 0 {
		t.Errorf("Total = %d, want 0", ix.Total())
	}
	if got := ix.Coverage(pattern.All(3)); got != 0 {
		t.Errorf("cov(root) = %d, want 0", got)
	}
	p, _ := pattern.Parse("01X", ds.Cards())
	if got := ix.Coverage(p); got != 0 {
		t.Errorf("cov(01X) = %d, want 0", got)
	}
}
