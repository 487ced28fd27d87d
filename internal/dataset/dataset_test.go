package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coverage/internal/pattern"
)

func binSchema(t *testing.T, d int) *Schema {
	t.Helper()
	return BinarySchema("a", d)
}

// example1 builds the paper's Example 1 dataset: binary A1..A3 with
// tuples 010, 001, 000, 011, 001.
func example1(t *testing.T) *Dataset {
	t.Helper()
	ds := New(binSchema(t, 3))
	for _, row := range [][]uint8{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}, {0, 1, 1}, {0, 0, 1}} {
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
	}{
		{"empty name", []Attribute{{Name: "", Values: []string{"a"}}}},
		{"duplicate name", []Attribute{{Name: "x", Values: []string{"a"}}, {Name: "x", Values: []string{"b"}}}},
		{"no values", []Attribute{{Name: "x", Values: nil}}},
		{"too many values", []Attribute{{Name: "x", Values: make([]string, 255)}}},
	}
	for _, tc := range cases {
		if _, err := NewSchema(tc.attrs); err == nil {
			t.Errorf("%s: NewSchema succeeded, want error", tc.name)
		}
	}
	s, err := NewSchema([]Attribute{{Name: "sex", Values: []string{"male", "female"}}})
	if err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if i, ok := s.AttrIndex("sex"); !ok || i != 0 {
		t.Errorf("AttrIndex(sex) = %d, %v", i, ok)
	}
	if _, ok := s.AttrIndex("nope"); ok {
		t.Error("AttrIndex(nope) found a column")
	}
	if code, ok := s.ValueCode(0, "female"); !ok || code != 1 {
		t.Errorf("ValueCode(female) = %d, %v", code, ok)
	}
	if _, ok := s.ValueCode(0, "other"); ok {
		t.Error("ValueCode(other) found a value")
	}
}

// TestSchemaDuplicateValueLabels: a repeated label would send every row
// labelled with it to the first code, so the other code — a value no row
// could ever take — would be reported uncovered. The schema
// a ∈ {y, y}, b ∈ {p, q} with five rows all labelled a=y used to yield
// the MUP a=y at τ = 1; NewSchema now refuses it.
func TestSchemaDuplicateValueLabels(t *testing.T) {
	_, err := NewSchema([]Attribute{
		{Name: "a", Values: []string{"y", "y"}},
		{Name: "b", Values: []string{"p", "q"}},
	})
	if err == nil || !strings.Contains(err.Error(), `duplicate value "y"`) {
		t.Fatalf("NewSchema with a repeated label: error %v, want one naming the value", err)
	}
	if _, err := NewSchema([]Attribute{{Name: "a", Values: []string{"y", "Y", ""}}}); err != nil {
		t.Fatalf("distinct labels rejected: %v", err)
	}
}

// TestSchemaKeyWidthLimit pins the one schema limit past the
// per-attribute ones: the combination key, Σ⌈log2(ci+1)⌉ bits, must fit
// pattern.MaxKeyBits. 64 binary attributes and 16 of 254 values fill
// exactly 128 bits; one more attribute is refused, with an error that
// names the width and the way out.
func TestSchemaKeyWidthLimit(t *testing.T) {
	wide := func(d, card int) []Attribute {
		attrs := make([]Attribute, d)
		for i := range attrs {
			attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Values: make([]string, card)}
			for v := range attrs[i].Values {
				attrs[i].Values[v] = fmt.Sprintf("v%d", v)
			}
		}
		return attrs
	}
	for _, ok := range []struct{ d, card int }{{64, 2}, {16, 254}, {42, 4}} {
		if _, err := NewSchema(wide(ok.d, ok.card)); err != nil {
			t.Errorf("%d attributes of %d values (128 bits or fewer) rejected: %v", ok.d, ok.card, err)
		}
	}
	for _, bad := range []struct {
		d, card, bits int
	}{{65, 2, 130}, {17, 254, 136}, {43, 4, 129}} {
		_, err := NewSchema(wide(bad.d, bad.card))
		if err == nil {
			t.Errorf("%d attributes of %d values (%d bits) accepted", bad.d, bad.card, bad.bits)
			continue
		}
		for _, want := range []string{fmt.Sprintf("%d-bit", bad.bits), "CSVOptions.Columns", "-columns"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%d attributes of %d values: error %q does not mention %q", bad.d, bad.card, err, want)
			}
		}
	}
}

// TestReadCSVSelectsBeforeTheWidthLimit: ReadCSV projects onto the
// attributes of interest before it builds the schema, so a CSV wider
// than the key limit loads once its columns are selected.
func TestReadCSVSelectsBeforeTheWidthLimit(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 70; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "c%d", i)
	}
	for r := 0; r < 4; r++ {
		sb.WriteByte('\n')
		for i := 0; i < 70; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString([]string{"no", "yes"}[(r+i)%2])
		}
	}
	csv := sb.String()
	if _, err := ReadCSV(strings.NewReader(csv), CSVOptions{}); err == nil || !strings.Contains(err.Error(), "CSVOptions.Columns") {
		t.Fatalf("70 binary columns, none selected: error %v, want the width limit naming CSVOptions.Columns", err)
	}
	ds, err := ReadCSV(strings.NewReader(csv), CSVOptions{Columns: []string{"c3", "c40", "c69"}})
	if err != nil {
		t.Fatalf("3 selected columns: %v", err)
	}
	if ds.Dim() != 3 || ds.NumRows() != 4 {
		t.Fatalf("projected CSV holds %d rows × %d attributes, want 4 × 3", ds.NumRows(), ds.Dim())
	}
}

func TestAppendValidation(t *testing.T) {
	ds := New(binSchema(t, 2))
	if err := ds.Append([]uint8{0, 1, 0}); err == nil {
		t.Error("Append with wrong dimension succeeded")
	}
	if err := ds.Append([]uint8{0, 2}); err == nil {
		t.Error("Append with out-of-range value succeeded")
	}
	if err := ds.Append([]uint8{1, 1}); err != nil {
		t.Errorf("valid Append failed: %v", err)
	}
	if ds.NumRows() != 1 {
		t.Errorf("NumRows = %d, want 1", ds.NumRows())
	}
}

func TestCountMatchesExample1(t *testing.T) {
	ds := example1(t)
	cards := ds.Cards()
	tests := []struct {
		p    string
		want int64
	}{
		{"XXX", 5},
		{"0XX", 5},
		{"1XX", 0}, // the MUP of Example 1
		{"X0X", 3},
		{"0X1", 3}, // Appendix A worked example
		{"001", 2},
		{"X11", 1},
	}
	for _, tc := range tests {
		p, err := pattern.Parse(tc.p, cards)
		if err != nil {
			t.Fatal(err)
		}
		if got := ds.CountMatches(p); got != tc.want {
			t.Errorf("cov(%s) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestDistinct(t *testing.T) {
	ds := example1(t)
	dd := ds.Distinct()
	if dd.NumDistinct() != 4 {
		t.Fatalf("NumDistinct = %d, want 4", dd.NumDistinct())
	}
	if dd.Total() != 5 {
		t.Fatalf("Total = %d, want 5", dd.Total())
	}
	// 001 appears twice.
	found := false
	for i, combo := range dd.Combos {
		if string(combo) == string([]uint8{0, 0, 1}) {
			found = true
			if dd.Counts[i] != 2 {
				t.Errorf("count(001) = %d, want 2", dd.Counts[i])
			}
		} else if dd.Counts[i] != 1 {
			t.Errorf("count(%v) = %d, want 1", combo, dd.Counts[i])
		}
	}
	if !found {
		t.Error("combo 001 missing from Distinct")
	}
}

func TestGrowAndMustAppend(t *testing.T) {
	ds := New(binSchema(t, 2))
	ds.Grow(100)
	for i := 0; i < 100; i++ {
		ds.MustAppend([]uint8{uint8(i % 2), uint8((i / 2) % 2)})
	}
	if ds.NumRows() != 100 {
		t.Fatalf("NumRows = %d", ds.NumRows())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend with invalid row did not panic")
		}
	}()
	ds.MustAppend([]uint8{9, 0})
}

func TestDistinctOrderIsFirstAppearance(t *testing.T) {
	ds := New(binSchema(t, 2))
	for _, row := range [][]uint8{{1, 1}, {0, 0}, {1, 1}, {0, 1}} {
		ds.MustAppend(row)
	}
	dd := ds.Distinct()
	want := []string{"\x01\x01", "\x00\x00", "\x00\x01"}
	if len(dd.Combos) != 3 {
		t.Fatalf("NumDistinct = %d", len(dd.Combos))
	}
	for i, combo := range dd.Combos {
		if string(combo) != want[i] {
			t.Errorf("combo %d = %v, want %v", i, combo, []byte(want[i]))
		}
	}
	if dd.Counts[0] != 2 {
		t.Errorf("count of first combo = %d, want 2", dd.Counts[0])
	}
}

func TestProject(t *testing.T) {
	ds := example1(t)
	proj, err := ds.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Dim() != 2 || proj.NumRows() != ds.NumRows() {
		t.Fatalf("projection shape = (%d attrs, %d rows)", proj.Dim(), proj.NumRows())
	}
	for i := 0; i < ds.NumRows(); i++ {
		src, got := ds.Row(i), proj.Row(i)
		if got[0] != src[2] || got[1] != src[0] {
			t.Fatalf("row %d: projected %v from %v", i, got, src)
		}
	}
	if _, err := ds.Project([]int{5}); err == nil {
		t.Error("out-of-range projection succeeded")
	}
}

func TestSample(t *testing.T) {
	ds := New(binSchema(t, 4))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		ds.MustAppend([]uint8{uint8(rng.Intn(2)), uint8(rng.Intn(2)), uint8(rng.Intn(2)), uint8(rng.Intn(2))})
	}
	s := ds.Sample(rand.New(rand.NewSource(1)), 30)
	if s.NumRows() != 30 {
		t.Fatalf("Sample size = %d, want 30", s.NumRows())
	}
	all := ds.Sample(rand.New(rand.NewSource(1)), 1000)
	if all.NumRows() != 100 {
		t.Fatalf("oversized Sample size = %d, want 100", all.NumRows())
	}
	// Determinism for fixed seed.
	s2 := ds.Sample(rand.New(rand.NewSource(1)), 30)
	for i := 0; i < 30; i++ {
		if string(s.Row(i)) != string(s2.Row(i)) {
			t.Fatal("Sample not deterministic for fixed seed")
		}
	}
}

func TestCloneAndAppendDataset(t *testing.T) {
	ds := example1(t)
	c := ds.Clone()
	c.MustAppend([]uint8{1, 1, 1})
	if ds.NumRows() != 5 || c.NumRows() != 6 {
		t.Fatalf("clone not independent: %d / %d rows", ds.NumRows(), c.NumRows())
	}
	if err := ds.AppendDataset(c); err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 11 {
		t.Fatalf("after AppendDataset: %d rows, want 11", ds.NumRows())
	}
	other := New(binSchema(t, 2))
	if err := ds.AppendDataset(other); err == nil {
		t.Error("AppendDataset with mismatched dimension succeeded")
	}
}

func TestDescribePattern(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "sex", Values: []string{"male", "female"}},
		{Name: "race", Values: []string{"african-american", "caucasian", "hispanic", "other"}},
	})
	p, err := pattern.Parse("X2", s.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DescribePattern(p); got != "race=hispanic" {
		t.Errorf("DescribePattern = %q", got)
	}
	if got := s.DescribePattern(pattern.All(2)); got != "(any)" {
		t.Errorf("DescribePattern(all) = %q", got)
	}
	if got := s.DescribePattern(pattern.All(3)); !strings.Contains(got, "invalid") {
		t.Errorf("DescribePattern(wrong dim) = %q", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := strings.Join([]string{
		"sex,race,label",
		"male,caucasian,0",
		"female,hispanic,1",
		"male,hispanic,0",
		"female,caucasian,1",
	}, "\n")
	ds, err := ReadCSV(strings.NewReader(in), CSVOptions{Columns: []string{"sex", "race"}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim() != 2 || ds.NumRows() != 4 {
		t.Fatalf("shape = (%d, %d)", ds.Dim(), ds.NumRows())
	}
	// Codes assigned in sorted value order: female=0, male=1.
	if code, _ := ds.Schema().ValueCode(0, "female"); code != 0 {
		t.Errorf("female code = %d, want 0", code)
	}
	var buf strings.Builder
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != ds.NumRows() || back.Dim() != ds.Dim() {
		t.Fatalf("round trip shape = (%d, %d)", back.Dim(), back.NumRows())
	}
	for i := 0; i < ds.NumRows(); i++ {
		if string(back.Row(i)) != string(ds.Row(i)) {
			t.Fatalf("round trip row %d: %v vs %v", i, back.Row(i), ds.Row(i))
		}
	}
}

func TestCSVSingleColumnEmptyValueRoundTrip(t *testing.T) {
	// Regression (found by fuzzing): a single empty field serializes
	// to a blank line that encoding/csv's reader skips; WriteCSV must
	// quote it so the row survives.
	in := "c\n\"\"\nv\n"
	ds, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", ds.NumRows())
	}
	var buf strings.Builder
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 {
		t.Fatalf("round trip rows = %d, want 2\ncsv: %q", back.NumRows(), buf.String())
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opts CSVOptions
	}{
		{"empty input", "", CSVOptions{}},
		{"missing column", "a,b\n1,2", CSVOptions{Columns: []string{"c"}}},
		{"cardinality cap", "a\n1\n2\n3", CSVOptions{MaxCardinality: 2}},
		{"short row", "a,b\n1", CSVOptions{Columns: []string{"b"}}},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.in), tc.opts); err == nil {
			t.Errorf("%s: ReadCSV succeeded, want error", tc.name)
		}
	}
}

func TestBuckets(t *testing.T) {
	// Paper's COMPAS age buckets: under 20, 20-39, 40-59, 60+.
	b, err := NewBuckets("age", []float64{20, 40, 60}, []string{"under 20", "20-39", "40-59", "60+"})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		v    float64
		want uint8
	}{
		{5, 0}, {19.9, 0}, {20, 1}, {39, 1}, {40, 2}, {59.5, 2}, {60, 3}, {95, 3},
	}
	for _, tc := range tests {
		if got := b.Code(tc.v); got != tc.want {
			t.Errorf("Code(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
	attr := b.Attribute()
	if attr.Cardinality() != 4 || attr.Name != "age" {
		t.Errorf("Attribute = %+v", attr)
	}
	codes := b.Apply([]float64{10, 25, 45, 70})
	if string(codes) != string([]uint8{0, 1, 2, 3}) {
		t.Errorf("Apply = %v", codes)
	}
}

func TestBucketsValidation(t *testing.T) {
	if _, err := NewBuckets("x", []float64{1, 1}, nil); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := NewBuckets("x", []float64{1, 2}, []string{"a"}); err == nil {
		t.Error("wrong label count accepted")
	}
	b, err := NewBuckets("x", []float64{10, 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Labels) != 3 {
		t.Fatalf("auto labels = %v", b.Labels)
	}
	nb, err := NewBuckets("x", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Code(123) != 0 {
		t.Error("zero-bound bucketizer must map everything to 0")
	}
}

func TestBinarySchema(t *testing.T) {
	s := BinarySchema("amenity", 5)
	if s.Dim() != 5 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	for i := 0; i < 5; i++ {
		if s.Attr(i).Cardinality() != 2 {
			t.Errorf("attr %d cardinality = %d", i, s.Attr(i).Cardinality())
		}
	}
	if s.Attr(3).Name != "amenity3" {
		t.Errorf("attr 3 name = %q", s.Attr(3).Name)
	}
}
