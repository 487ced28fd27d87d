package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// model is a []bool reference implementation the vector is checked against.
type model []bool

func randomPair(r *rand.Rand, n int) (*Vector, model) {
	v := New(n)
	m := make(model, n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			v.Set(i)
			m[i] = true
		}
	}
	return v, m
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("fresh vector has bit %d set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Set(10) },
		func() { New(10).Get(-1) },
		func() { New(10).Clear(64) },
		func() { New(0).Get(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on out-of-range access", i)
				}
			}()
			fn()
		}()
	}
}

func TestSetAllTrimsTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		v := NewOnes(n)
		if got := v.Count(); got != n {
			t.Errorf("NewOnes(%d).Count() = %d, want %d", n, got, n)
		}
	}
}

func TestBooleanOpsAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(200)
		a, ma := randomPair(r, n)
		b, mb := randomPair(r, n)

		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		andNot := a.Clone()
		andNot.AndNot(b)
		into := New(n)
		a.AndInto(b, into)
		orInto := New(n)
		a.OrInto(b, orInto)

		wantCount := 0
		for i := 0; i < n; i++ {
			if ma[i] && mb[i] != and.Get(i) {
				t.Fatalf("n=%d i=%d: And mismatch", n, i)
			}
			if (ma[i] || mb[i]) != or.Get(i) {
				t.Fatalf("n=%d i=%d: Or mismatch", n, i)
			}
			if (ma[i] && !mb[i]) != andNot.Get(i) {
				t.Fatalf("n=%d i=%d: AndNot mismatch", n, i)
			}
			if and.Get(i) != into.Get(i) {
				t.Fatalf("n=%d i=%d: AndInto differs from And", n, i)
			}
			if or.Get(i) != orInto.Get(i) {
				t.Fatalf("n=%d i=%d: OrInto differs from Or", n, i)
			}
			if ma[i] {
				wantCount++
			}
		}
		if got := a.Count(); got != wantCount {
			t.Fatalf("n=%d: Count = %d, want %d", n, got, wantCount)
		}
		if got, want := a.CountAnd(b), and.Count(); got != want {
			t.Fatalf("n=%d: CountAnd = %d, want %d", n, got, want)
		}
		if got, want := a.AnyAnd(b), and.Any(); got != want {
			t.Fatalf("n=%d: AnyAnd = %v, want %v", n, got, want)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	ops := []func(){
		func() { a.And(b) },
		func() { a.Or(b) },
		func() { a.AndNot(b) },
		func() { a.AnyAnd(b) },
		func() { a.CountAnd(b) },
		func() { a.CopyFrom(b) },
		func() { a.AndInto(a.Clone(), b) },
		func() { a.DotCounts(make([]int64, 11)) },
	}
	for i, fn := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %d: no panic on length mismatch", i)
				}
			}()
			fn()
		}()
	}
}

func TestDotCounts(t *testing.T) {
	v := New(5)
	v.Set(0)
	v.Set(2)
	v.Set(4)
	counts := []int64{1, 100, 10, 1000, 5}
	if got := v.DotCounts(counts); got != 16 {
		t.Errorf("DotCounts = %d, want 16", got)
	}
	// Appendix A worked example: cov(0X1) over Example 1's distinct
	// combos {000, 001, 010, 011} with counts {1, 2, 1, 1} is the dot
	// of v1,0 ∧ v3,1 = 0101 with counts = 2 + 1 = 3.
	probe := New(4)
	probe.Set(1)
	probe.Set(3)
	if got := probe.DotCounts([]int64{1, 2, 1, 1}); got != 3 {
		t.Errorf("Appendix A example cov(0X1) = %d, want 3", got)
	}
}

func TestForEachAndNextSet(t *testing.T) {
	v := New(200)
	want := []int{0, 63, 64, 100, 199}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	idx, cur := 0, v.NextSet(0)
	for cur != -1 {
		if cur != want[idx] {
			t.Fatalf("NextSet chain gave %d at step %d, want %d", cur, idx, want[idx])
		}
		idx++
		cur = v.NextSet(cur + 1)
	}
	if idx != len(want) {
		t.Fatalf("NextSet chain stopped after %d bits, want %d", idx, len(want))
	}
	if v.NextSet(-5) != 0 {
		t.Error("NextSet with negative start did not clamp to 0")
	}
	if New(10).NextSet(3) != -1 {
		t.Error("NextSet on empty vector != -1")
	}
}

func TestEqualAndString(t *testing.T) {
	a := New(5)
	a.Set(1)
	a.Set(3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not Equal")
	}
	b.Clear(3)
	if a.Equal(b) {
		t.Error("differing vectors Equal")
	}
	if a.Equal(New(6)) {
		t.Error("different lengths Equal")
	}
	if got := a.String(); got != "01010" {
		t.Errorf("String() = %q, want %q", got, "01010")
	}
}

func TestGrower(t *testing.T) {
	var g Grower
	bitsIn := []bool{true, false, true}
	for i := 0; i < 70; i++ {
		g.Append(bitsIn[i%3])
	}
	if g.Len() != 70 {
		t.Fatalf("Len = %d, want 70", g.Len())
	}
	for i := 0; i < 70; i++ {
		if g.Get(i) != bitsIn[i%3] {
			t.Fatalf("bit %d = %v, want %v", i, g.Get(i), bitsIn[i%3])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Grower.Get out of range did not panic")
			}
		}()
		g.Get(70)
	}()
}

func TestAnyAndAll(t *testing.T) {
	mk := func(bits ...bool) *Grower {
		g := &Grower{}
		for _, b := range bits {
			g.Append(b)
		}
		return g
	}
	if AnyAndAll(nil) {
		t.Error("AnyAndAll(nil) = true")
	}
	a := mk(true, false, true)
	b := mk(true, true, false)
	c := mk(false, true, true)
	if !AnyAndAll([]*Grower{a, b}) {
		t.Error("AnyAndAll(a, b) = false, want true (bit 0)")
	}
	if AnyAndAll([]*Grower{a, b, c}) {
		t.Error("AnyAndAll(a, b, c) = true, want false")
	}
	if !AnyAndAll([]*Grower{a}) {
		t.Error("AnyAndAll(a) = false, want true")
	}
}

func TestAnyAndAllOr(t *testing.T) {
	mk := func(bits ...bool) *Grower {
		g := &Grower{}
		for _, b := range bits {
			g.Append(b)
		}
		return g
	}
	// (a0 ∨ b0) ∧ (a1 ∨ b1): bit 1 survives both.
	a := []*Grower{mk(true, false), mk(false, true)}
	b := []*Grower{mk(false, true), nil}
	if !AnyAndAllOr(a, b) {
		t.Error("AnyAndAllOr = false, want true (bit 1)")
	}
	b2 := []*Grower{mk(false, false), nil}
	// (a0 ∨ 0) ∧ a1 = (1,0) ∧ (0,1) = 0.
	if AnyAndAllOr(a, b2) {
		t.Error("AnyAndAllOr = true, want false")
	}
	if AnyAndAllOr(nil, nil) {
		t.Error("AnyAndAllOr(nil) = true")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AnyAndAllOr with unparallel slices did not panic")
			}
		}()
		AnyAndAllOr(a, b[:1])
	}()
}

func TestBounds(t *testing.T) {
	v := New(300)
	if lo, hi := v.Bounds(); lo < hi {
		t.Errorf("empty vector Bounds = [%d, %d)", lo, hi)
	}
	v.Set(70)
	v.Set(250)
	lo, hi := v.Bounds()
	if lo != 1 || hi != 4 {
		t.Errorf("Bounds = [%d, %d), want [1, 4)", lo, hi)
	}
}

func TestQuickCountAndMatchesAndThenCount(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)
		r := rand.New(rand.NewSource(seed))
		a, _ := randomPair(r, n)
		b, _ := randomPair(r, n)
		and := a.Clone()
		and.And(b)
		return a.CountAnd(b) == and.Count() && a.AnyAnd(b) == and.Any()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDotCountsEqualsNaiveSum(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)
		r := rand.New(rand.NewSource(seed))
		v, m := randomPair(r, n)
		counts := make([]int64, n)
		var want int64
		for i := range counts {
			counts[i] = int64(r.Intn(1000))
			if m[i] {
				want += counts[i]
			}
		}
		return v.DotCounts(counts) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCountRunsMatchesModel(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)
		r := rand.New(rand.NewSource(seed))
		v, vm := randomPair(r, n)
		cont, cm := randomPair(r, n)
		want := 0
		for i := range vm {
			if vm[i] && !(i > 0 && vm[i-1] && cm[i]) {
				want++
			}
		}
		return v.CountRuns(cont) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// A run crossing a word boundary is one run; cont cleared at the
	// boundary splits it.
	v, cont := New(130), New(130)
	for i := 60; i < 70; i++ {
		v.Set(i)
		cont.Set(i)
	}
	if got := v.CountRuns(cont); got != 1 {
		t.Errorf("CountRuns across a word boundary = %d, want 1", got)
	}
	cont.Clear(64)
	if got := v.CountRuns(cont); got != 2 {
		t.Errorf("CountRuns with the boundary split = %d, want 2", got)
	}
}

func TestResetReusesStorage(t *testing.T) {
	v := NewOnes(200)
	v.Reset(70)
	if v.Len() != 70 || v.Any() {
		t.Fatalf("Reset(70): len %d, any %v", v.Len(), v.Any())
	}
	v.SetAll()
	v.Reset(190)
	if v.Len() != 190 || v.Any() {
		t.Fatalf("Reset(190): len %d, any %v", v.Len(), v.Any())
	}
	v.Reset(300)
	v.Set(299)
	if v.Len() != 300 || v.Count() != 1 {
		t.Fatalf("Reset(300): len %d, count %d", v.Len(), v.Count())
	}
}
