// Package dataset provides the categorical-dataset substrate of the
// coverage system: schemas with per-attribute value dictionaries,
// compact code-based row storage, deduplication into distinct value
// combinations with multiplicities (the representation the coverage
// oracle of Appendix A indexes), projections onto attributes of
// interest, sampling, bucketization of continuous attributes, and a
// CSV codec.
//
// Values are stored as uint8 codes; an attribute may have at most
// pattern.MaxCardinality - 1 distinct values so the wildcard code
// stays reserved for patterns.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"coverage/internal/pattern"
)

// Attribute describes one categorical attribute: its name and the
// labels of its values. The value with code i has label Values[i];
// the cardinality is len(Values).
type Attribute struct {
	Name   string
	Values []string
}

// Cardinality returns the number of values of the attribute.
func (a Attribute) Cardinality() int { return len(a.Values) }

// Schema is an ordered list of attributes of interest.
type Schema struct {
	attrs []Attribute
	cards []int
	index map[string]int
}

// NewSchema validates and builds a schema. Attribute names must be
// unique and non-empty; every attribute needs at least one value and
// at most pattern.MaxCardinality - 1, with no label repeated. The
// attributes together must fit a two-word pattern.PackedKey
// (pattern.KeyBits at most pattern.MaxKeyBits): every combination is
// identified by its packed key downstream, so this is the one place the
// limit is enforced.
func NewSchema(attrs []Attribute) (*Schema, error) {
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		cards: make([]int, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("dataset: attribute %q has no values", a.Name)
		}
		if len(a.Values) >= pattern.MaxCardinality {
			return nil, fmt.Errorf("dataset: attribute %q has %d values, max is %d",
				a.Name, len(a.Values), pattern.MaxCardinality-1)
		}
		// A repeated label would make ValueCode resolve every row to its
		// first code, leaving the other code uncovered by construction.
		seen := make(map[string]bool, len(a.Values))
		for _, v := range a.Values {
			if seen[v] {
				return nil, fmt.Errorf("dataset: attribute %q has duplicate value %q", a.Name, v)
			}
			seen[v] = true
		}
		s.attrs[i] = Attribute{Name: a.Name, Values: append([]string(nil), a.Values...)}
		s.cards[i] = len(a.Values)
		s.index[a.Name] = i
	}
	if b := pattern.KeyBits(s.cards); b > pattern.MaxKeyBits {
		return nil, fmt.Errorf("dataset: %d attributes need a %d-bit combination key, max is %d; "+
			"select the attributes of interest (CSVOptions.Columns, covserve -columns)",
			len(attrs), b, pattern.MaxKeyBits)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and
// generators with static schemas.
func MustSchema(attrs []Attribute) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// BinarySchema returns a schema of d boolean attributes named
// prefix0..prefix{d-1} with values "no"/"yes" — the shape of the
// paper's AirBnB attributes.
func BinarySchema(prefix string, d int) *Schema {
	attrs := make([]Attribute, d)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("%s%d", prefix, i), Values: []string{"no", "yes"}}
	}
	return MustSchema(attrs)
}

// Dim returns the number of attributes.
func (s *Schema) Dim() int { return len(s.attrs) }

// Cards returns the cardinality vector. The caller must not modify it.
func (s *Schema) Cards() []int { return s.cards }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// AttrIndex returns the position of the named attribute.
func (s *Schema) AttrIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// ValueCode returns the code of the named value of attribute i.
func (s *Schema) ValueCode(i int, value string) (uint8, bool) {
	for code, v := range s.attrs[i].Values {
		if v == value {
			return uint8(code), true
		}
	}
	return 0, false
}

// DescribePattern renders a pattern using attribute and value names,
// e.g. "race=Hispanic, marital=widowed"; the all-wildcard pattern
// renders as "(any)".
func (s *Schema) DescribePattern(p pattern.Pattern) string {
	return string(s.AppendDescription(nil, p))
}

// AppendDescription appends the DescribePattern form of p to dst and
// returns the extended slice.
func (s *Schema) AppendDescription(dst []byte, p pattern.Pattern) []byte {
	if len(p) != s.Dim() {
		dst = append(dst, "(invalid pattern "...)
		dst = p.AppendText(dst)
		dst = append(dst, " for "...)
		dst = strconv.AppendInt(dst, int64(s.Dim()), 10)
		return append(dst, "-attribute schema)"...)
	}
	start := len(dst)
	for i, v := range p {
		if v == pattern.Wildcard {
			continue
		}
		if len(dst) > start {
			dst = append(dst, ", "...)
		}
		dst = append(dst, s.attrs[i].Name...)
		dst = append(dst, '=')
		if int(v) < len(s.attrs[i].Values) {
			dst = append(dst, s.attrs[i].Values[v]...)
		} else {
			dst = append(dst, '#')
			dst = strconv.AppendUint(dst, uint64(v), 10)
		}
	}
	if len(dst) == start {
		dst = append(dst, "(any)"...)
	}
	return dst
}

// Project returns the sub-schema over the given attribute positions.
func (s *Schema) Project(attrIdx []int) (*Schema, error) {
	attrs := make([]Attribute, len(attrIdx))
	for k, i := range attrIdx {
		if i < 0 || i >= s.Dim() {
			return nil, fmt.Errorf("dataset: projection index %d out of range [0, %d)", i, s.Dim())
		}
		attrs[k] = s.attrs[i]
	}
	return NewSchema(attrs)
}

// Dataset is a collection of rows over a schema, stored as a flat
// code buffer for cache-friendly scans.
type Dataset struct {
	schema *Schema
	data   []uint8 // n × d, row-major
	n      int
}

// New returns an empty dataset over the schema.
func New(schema *Schema) *Dataset {
	return &Dataset{schema: schema}
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return d.n }

// Dim returns the number of attributes.
func (d *Dataset) Dim() int { return d.schema.Dim() }

// Cards returns the cardinality vector of the schema.
func (d *Dataset) Cards() []int { return d.schema.Cards() }

// Row returns the i-th row as a view into the dataset's storage.
// The caller must not modify or retain it across appends.
func (d *Dataset) Row(i int) []uint8 {
	dim := d.Dim()
	return d.data[i*dim : (i+1)*dim : (i+1)*dim]
}

// Append validates row against the schema and adds it.
func (d *Dataset) Append(row []uint8) error {
	if len(row) != d.Dim() {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(row), d.Dim())
	}
	for i, v := range row {
		if int(v) >= d.schema.cards[i] {
			return fmt.Errorf("dataset: value %d for attribute %q exceeds cardinality %d",
				v, d.schema.attrs[i].Name, d.schema.cards[i])
		}
	}
	d.data = append(d.data, row...)
	d.n++
	return nil
}

// MustAppend is Append that panics on error, for generators that
// construct rows from the same schema.
func (d *Dataset) MustAppend(row []uint8) {
	if err := d.Append(row); err != nil {
		panic(err)
	}
}

// Grow pre-allocates capacity for n additional rows.
func (d *Dataset) Grow(n int) {
	need := len(d.data) + n*d.Dim()
	if cap(d.data) < need {
		buf := make([]uint8, len(d.data), need)
		copy(buf, d.data)
		d.data = buf
	}
}

// CountMatches returns cov(P, D) by a literal scan over the rows —
// the direct implementation of Definition 2, used as the reference
// oracle in tests and by the naïve algorithms.
func (d *Dataset) CountMatches(p pattern.Pattern) int64 {
	var n int64
	dim := d.Dim()
	for i := 0; i < d.n; i++ {
		if p.Matches(d.data[i*dim : (i+1)*dim]) {
			n++
		}
	}
	return n
}

// Project returns a new dataset restricted to the given attribute
// positions (the paper's "attributes of interest" selection).
func (d *Dataset) Project(attrIdx []int) (*Dataset, error) {
	schema, err := d.schema.Project(attrIdx)
	if err != nil {
		return nil, err
	}
	out := New(schema)
	out.Grow(d.n)
	row := make([]uint8, len(attrIdx))
	for i := 0; i < d.n; i++ {
		src := d.Row(i)
		for k, j := range attrIdx {
			row[k] = src[j]
		}
		out.data = append(out.data, row...)
		out.n++
	}
	return out, nil
}

// Sample returns a uniform sample of n rows without replacement.
// If n >= NumRows the whole dataset is copied.
func (d *Dataset) Sample(rng *rand.Rand, n int) *Dataset {
	out := New(d.schema)
	if n >= d.n {
		out.data = append([]uint8(nil), d.data...)
		out.n = d.n
		return out
	}
	idx := rng.Perm(d.n)[:n]
	sort.Ints(idx)
	out.Grow(n)
	for _, i := range idx {
		out.data = append(out.data, d.Row(i)...)
		out.n++
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := New(d.schema)
	out.data = append([]uint8(nil), d.data...)
	out.n = d.n
	return out
}

// AppendDataset appends all rows of other; schemas must have identical
// cardinality vectors (value dictionaries are trusted to align).
func (d *Dataset) AppendDataset(other *Dataset) error {
	if d.Dim() != other.Dim() {
		return fmt.Errorf("dataset: cannot append %d-attribute rows to %d-attribute dataset", other.Dim(), d.Dim())
	}
	for i, c := range other.Cards() {
		if c > d.schema.cards[i] {
			return fmt.Errorf("dataset: attribute %d cardinality %d exceeds target %d", i, c, d.schema.cards[i])
		}
	}
	d.data = append(d.data, other.data...)
	d.n += other.n
	return nil
}

// Distinct is the deduplicated form of a dataset: each distinct value
// combination once, with its multiplicity. This is the structure the
// inverted indices of Appendix A are built over.
type Distinct struct {
	Schema *Schema
	Combos [][]uint8
	Counts []int64
}

// Distinct deduplicates the dataset. Combination order is the order of
// first appearance, making the result deterministic for a fixed input.
func (d *Dataset) Distinct() *Distinct {
	dim := d.Dim()
	pos := make(map[string]int, d.n/4+16)
	out := &Distinct{Schema: d.schema}
	for i := 0; i < d.n; i++ {
		row := d.data[i*dim : (i+1)*dim]
		k := string(row)
		if j, ok := pos[k]; ok {
			out.Counts[j]++
			continue
		}
		pos[k] = len(out.Combos)
		out.Combos = append(out.Combos, append([]uint8(nil), row...))
		out.Counts = append(out.Counts, 1)
	}
	return out
}

// NumDistinct returns the number of distinct combinations.
func (dd *Distinct) NumDistinct() int { return len(dd.Combos) }

// Total returns the total row count (sum of multiplicities).
func (dd *Distinct) Total() int64 {
	var t int64
	for _, c := range dd.Counts {
		t += c
	}
	return t
}
