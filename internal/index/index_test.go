package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// FuzzProbeKernel checks the probe kernel and the marginal table
// against the literal sum over combinations: an index built by
// BuildFromKeys in either key layout (up to 16 attributes raw, past
// that bit-compact), with every multiplicity 1 (a single count plane)
// or spread up to 2^40 (40 planes, so words are priced both from the
// planes and match by match), probed at every level from the root to
// full rows. The schema is random (1–32 attributes of 2–4 values), or
// by shape one of the wide ones: 32 or 64 binary attributes, one
// attribute of 254 values (the most a schema takes) beside small ones,
// or 42 attributes of 4 values and a binary one whose field straddles
// the two key words. The builder gets its entries shuffled, with one
// count split across two entries and a ghost whose counts cancel, and
// must produce the index BuildFromDistinct builds over the same
// combinations in sort.Strings order: the same columns, windows,
// counts and planes. A batch of a
// pattern's Rule-1 children and grandchildren, the runs the walk probes
// off shared prefixes, and the thresholded probes must answer exactly
// below τ and at least τ above. All of it runs twice: on the kernel
// alone, then with the marginal table built, at the level the budgets
// admit; every pattern the table holds must equal the kernel's answer.
func FuzzProbeKernel(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(300), false, uint8(0))
	f.Add(int64(2), uint8(20), uint16(900), true, uint8(0))
	f.Add(int64(3), uint8(9), uint16(2500), true, uint8(0))
	f.Add(int64(4), uint8(30), uint16(1200), false, uint8(0))
	f.Add(int64(5), uint8(1), uint16(5), true, uint8(0))
	f.Add(int64(6), uint8(0), uint16(700), false, uint8(1))
	f.Add(int64(7), uint8(0), uint16(3500), true, uint8(1))
	f.Add(int64(8), uint8(0), uint16(400), true, uint8(2))
	f.Add(int64(9), uint8(0), uint16(2000), false, uint8(3))
	f.Add(int64(10), uint8(0), uint16(1500), true, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, n uint16, spread bool, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		var sizes []int
		switch shape % 5 {
		case 0:
			for range 1 + int(dim)%32 {
				sizes = append(sizes, 2+rng.Intn(3))
			}
		case 1, 2:
			sizes = slices.Repeat([]int{2}, 32*int(shape%5))
		case 3:
			sizes = []int{pattern.MaxCardinality - 1, 2, 3, 2, 4, 2}
		case 4:
			// 21 three-bit fields fill 63 bits of each key word, so the
			// last, two-bit field straddles them.
			sizes = append(slices.Repeat([]int{4}, 42), 2)
		}
		d := len(sizes)
		attrs := make([]dataset.Attribute, d)
		for j, size := range sizes {
			vals := make([]string, size)
			for v := range vals {
				vals[v] = fmt.Sprint(v)
			}
			attrs[j] = dataset.Attribute{Name: fmt.Sprintf("a%d", j), Values: vals}
		}
		schema := dataset.MustSchema(attrs)
		cards := schema.Cards()
		draw := func() []uint8 {
			c := make([]uint8, d)
			for j, card := range cards {
				// The product of two draws skews towards value 0, so
				// some value vectors are dense and others sparse.
				c[j] = uint8(rng.Float64() * rng.Float64() * float64(card))
			}
			return c
		}
		counts := make(map[string]int64)
		var combos [][]uint8
		for i := 0; i < int(n)%4096; i++ {
			c := draw()
			if _, ok := counts[string(c)]; ok {
				continue
			}
			counts[string(c)] = 1
			if spread {
				counts[string(c)] = 1 + rng.Int63n(1<<uint(rng.Intn(41)))
			}
			combos = append(combos, c)
		}
		if spread && len(combos) > 0 {
			counts[string(combos[0])] = 1<<40 - 1
		}
		codec := pattern.NewKeyCodec(cards)
		var entries []Entry
		for k, n := range counts {
			entries = append(entries, Entry{Key: codec.PackedKeyString(k), Count: n})
		}
		if len(entries) > 0 {
			// Split one count over two entries of the same key.
			entries = append(entries, Entry{Key: entries[0].Key, Count: 1})
			entries[0].Count--
		}
		if ghost := draw(); counts[string(ghost)] == 0 {
			k := codec.PackedKey(ghost)
			entries = append(entries, Entry{Key: k, Count: 3}, Entry{Key: k, Count: -3})
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		ix := BuildFromKeys(schema, entries)
		sameIndex(t, ix, BuildFromDistinct(sortedDistinct(schema, counts)))
		if ix.codec.Raw() != (d <= pattern.RawKeyDim) {
			t.Fatalf("%d attributes: raw key layout = %v", d, ix.codec.Raw())
		}
		switch {
		case len(combos) == 0:
		case spread && ix.nPlanes != 40:
			t.Fatalf("counts up to 2^40-1 sliced into %d planes, want 40", ix.nPlanes)
		case !spread && ix.nPlanes != 1:
			t.Fatalf("unit counts sliced into %d planes, want 1", ix.nPlanes)
		}
		literal := func(p pattern.Pattern) int64 {
			var sum int64
			for k, n := range counts {
				if p.Matches([]uint8(k)) {
					sum += n
				}
			}
			return sum
		}
		probeAll := func(pr *Prober) {
			for level := 0; level <= d; level++ {
				for trial := 0; trial < 4; trial++ {
					c := draw()
					if trial%2 == 0 && len(combos) > 0 {
						c = combos[rng.Intn(len(combos))]
					}
					p := pattern.All(d)
					for _, j := range rng.Perm(d)[:level] {
						p[j] = c[j]
					}
					want := literal(p)
					if got := pr.Coverage(p); got != want {
						t.Fatalf("cov(%v) = %d, literal sum %d", p, got, want)
					}
					if trial > 0 {
						continue
					}
					// p's Rule-1 children, then the first child of each of
					// the first two (sharing p's elements, differing in a
					// value) and p itself, under a τ that p reaches: below τ
					// every answer is the literal sum, at or above it at
					// least τ.
					kids := p.AppendRule1Children(nil, cards)
					batch := slices.Clone(kids)
					for _, k := range kids[:min(2, len(kids))] {
						if grand := k.AppendRule1Children(nil, cards); len(grand) > 0 {
							batch = append(batch, grand[0])
						}
					}
					batch = append(batch, p)
					tau := 1 + rng.Int63n(want+1)
					out := make([]int64, len(batch))
					before := pr.Probes()
					pr.CoverageBatch(batch, tau, out)
					if n := pr.Probes() - before; n != int64(len(batch)) {
						t.Fatalf("a batch of %d patterns counted %d probes", len(batch), n)
					}
					for i, q := range batch {
						exact := literal(q)
						if got := out[i]; exact < tau && got != exact || exact >= tau && (got < tau || got > exact) {
							t.Fatalf("CoverageBatch at τ=%d: cov(%v) = %d, literal sum %d", tau, q, got, exact)
						}
						if got := pr.CoverageAtLeast(q, tau); exact < tau && got != exact || exact >= tau && (got < tau || got > exact) {
							t.Fatalf("CoverageAtLeast(%v, %d) = %d, literal sum %d", q, tau, got, exact)
						}
					}
				}
			}
		}
		probeAll(ix.NewProber())
		if ix.MarginalBytes() != 0 {
			t.Fatal("probers built a marginal table")
		}
		ix.NewPool().CoverageBatch(nil, nil)
		level := wantMarginalLevel(cards, ix.NumDistinct())
		m := ix.marg.Load()
		switch {
		case level == 0 && m != nil:
			t.Fatalf("%v over %d combinations: a level-%d table past the budgets", cards, ix.NumDistinct(), m.level)
		case level == 0:
			return
		case m == nil || m.level != level:
			t.Fatalf("%v over %d combinations: table %v, want level %d", cards, ix.NumDistinct(), m, level)
		}
		probeAll(ix.NewProber())
		pr, kernel := ix.NewProber(), ix.NewProber()
		kernel.kernelOnly = true
		forEachLowPattern(cards, level, func(p pattern.Pattern) {
			if got, want := pr.Coverage(p), kernel.Coverage(p); got != want {
				t.Fatalf("table cov(%v) = %d, kernel %d", p, got, want)
			}
		})
		if pr.Probes() != kernel.Probes() {
			t.Fatalf("the table counted %d probes, the kernel %d", pr.Probes(), kernel.Probes())
		}
	})
}

// wantMarginalLevel is the marginal table's level rule, enumerated
// subset by subset: the largest ℓ ≤ min(3, d) whose cells and offsets
// fit marginalMaxBytes and whose build of nDist adds per subset fits
// marginalMaxAdds.
func wantMarginalLevel(cards []int, nDist int) int {
	d := len(cards)
	var cells, subsets [4]int64
	for i := 0; i < d; i++ {
		cells[1] += int64(cards[i])
		for j := i + 1; j < d; j++ {
			cells[2] += int64(cards[i] * cards[j])
			for k := j + 1; k < d; k++ {
				cells[3] += int64(cards[i] * cards[j] * cards[k])
				subsets[3]++
			}
			subsets[2]++
		}
		subsets[1]++
	}
	level := 0
	var c, s int64
	for l := 1; l <= min(3, d); l++ {
		c, s = c+cells[l], s+subsets[l]
		if 8*c+4*s > marginalMaxBytes || int64(nDist)*s > marginalMaxAdds {
			break
		}
		level = l
	}
	return level
}

// forEachLowPattern calls fn with every pattern of level 1 to level
// over cards; fn must not keep p.
func forEachLowPattern(cards []int, level int, fn func(p pattern.Pattern)) {
	p := pattern.All(len(cards))
	var fix func(from, left int)
	fix = func(from, left int) {
		for i := from; i < len(cards); i++ {
			for v := 0; v < cards[i]; v++ {
				p[i] = uint8(v)
				fn(p)
				if left > 1 {
					fix(i+1, left-1)
				}
			}
			p[i] = pattern.Wildcard
		}
	}
	fix(0, level)
}

// sortedDistinct lists a combo→count map in sort.Strings order of its
// keys.
func sortedDistinct(schema *dataset.Schema, counts map[string]int64) *dataset.Distinct {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dd := &dataset.Distinct{Schema: schema}
	for _, k := range keys {
		dd.Combos = append(dd.Combos, []uint8(k))
		dd.Counts = append(dd.Counts, counts[k])
	}
	return dd
}

// sameIndex fails unless got and want have the same columns (every
// value vector bit for bit, with its window and density), counts, bit
// planes and full-combo table.
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.nDist != want.nDist || got.total != want.total || got.nPlanes != want.nPlanes {
		t.Fatalf("distinct/total/planes = %d/%d/%d, want %d/%d/%d",
			got.nDist, got.total, got.nPlanes, want.nDist, want.total, want.nPlanes)
	}
	if !slices.Equal(got.counts, want.counts) || !slices.Equal(got.planes, want.planes) {
		t.Fatal("counts or bit planes differ")
	}
	for i := range want.vals {
		for v := range want.vals[i] {
			g, w := got.vals[i][v], want.vals[i][v]
			if !slices.Equal(g.words, w.words) || g.lo != w.lo || g.hi != w.hi || g.density != w.density {
				t.Fatalf("attribute %d value %d: vector, window or density differs", i, v)
			}
		}
	}
	if got.flat.Len() != want.flat.Len() {
		t.Fatalf("%d full combinations, want %d", got.flat.Len(), want.flat.Len())
	}
	want.flat.Range(func(k pattern.PackedKey, n int64) {
		if c := got.flat.Get(k); c != n {
			t.Fatalf("full combination %v has count %d, want %d", k, c, n)
		}
	})
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
