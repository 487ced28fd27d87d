package pattern

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCodecPackableKeysAreInjective(t *testing.T) {
	for _, cards := range [][]int{{2, 2, 2}, {10, 4, 7, 8, 3, 3, 5}, {2, 3, 2, 4, 2}} {
		c := NewCodec(cards)
		seen := make(map[PackedKey]string)
		EnumerateAll(cards, func(p Pattern) bool {
			k := c.PackedKey(p)
			if prev, dup := seen[k]; dup {
				t.Fatalf("cards %v: patterns %v and %v share key %v", cards, FromKey(prev), p, k)
			}
			seen[k] = p.Key()
			return true
		})
		if want := int(TotalPatterns(cards)); len(seen) != want {
			t.Fatalf("cards %v: %d distinct keys, want %d", cards, len(seen), want)
		}
	}
}

func TestCodecWideBinarySchemaStaysPackable(t *testing.T) {
	// 35 binary attributes need 2 bits each = 70 bits: the Fig 16
	// configuration must use the packed representation.
	cards := make([]int, 35)
	for i := range cards {
		cards[i] = 2
	}
	c := NewCodec(cards)
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		_ = seed
		a := quickPattern(r, cards)
		b := quickPattern(r, cards)
		// Keys agree exactly when patterns agree.
		return (c.PackedKey(a) == c.PackedKey(b)) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCodecRandomSchemasInjectiveRoundTrip(t *testing.T) {
	// Random schemas — dimensions and cardinalities drawn at random,
	// always including one attribute at the MaxCardinality-1 ceiling —
	// must give injective packed keys that round-trip exactly through
	// Unpack, AppendUnpack and PackedKeyString.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d := 1 + r.Intn(12)
		cards := make([]int, d)
		for i := range cards {
			cards[i] = 2 + r.Intn(20)
		}
		cards[r.Intn(d)] = MaxCardinality - 1
		c := NewCodec(cards)
		if c.Dim() != d {
			t.Fatalf("trial %d: Dim() = %d, want %d", trial, c.Dim(), d)
		}
		seen := make(map[PackedKey]string)
		var buf []uint8
		for n := 0; n < 500; n++ {
			p := quickPattern(r, cards)
			k := c.PackedKey(p)
			if prev, dup := seen[k]; dup && prev != p.Key() {
				t.Fatalf("trial %d: patterns %v and %v share key %v", trial, FromKey(prev), p, k)
			}
			seen[k] = p.Key()
			if got := c.Unpack(k); !got.Equal(p) {
				t.Fatalf("trial %d: Unpack(PackedKey(%v)) = %v", trial, p, got)
			}
			buf = c.AppendUnpack(buf[:0], k)
			if !Pattern(buf).Equal(p) {
				t.Fatalf("trial %d: AppendUnpack(PackedKey(%v)) = %v", trial, p, Pattern(buf))
			}
			if ks := c.PackedKeyString(p.Key()); ks != k {
				t.Fatalf("trial %d: PackedKeyString(%q) = %v, PackedKey = %v", trial, p.Key(), ks, k)
			}
		}
	}
}

func TestCodecMaxCardinalityExactFit(t *testing.T) {
	// 16 attributes at cardinality MaxCardinality-1 = 254 need 8 bits
	// each (values 0..253 plus the wildcard code 254): exactly 128
	// bits, the widest schema at that cardinality. One more attribute
	// passes the limit.
	cards := make([]int, 16)
	for i := range cards {
		cards[i] = MaxCardinality - 1
	}
	if b := KeyBits(cards); b != MaxKeyBits {
		t.Fatalf("KeyBits = %d, want %d", b, MaxKeyBits)
	}
	c := NewCodec(cards)
	r := rand.New(rand.NewSource(7))
	for n := 0; n < 2000; n++ {
		p := quickPattern(r, cards)
		if got := c.Unpack(c.PackedKey(p)); !got.Equal(p) {
			t.Fatalf("round trip of %v gave %v", p, got)
		}
	}
	if KeyBits(append(cards, 2)) <= MaxKeyBits {
		t.Fatal("17th attribute must overflow the 128-bit budget")
	}
}

// mustPanic reports whether fn panics.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

func TestCodecRandomWideSchemasRefused(t *testing.T) {
	// Schemas whose field widths sum past 128 bits must report their
	// width through KeyBits and be refused by NewCodec, whatever the
	// attribute mix.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		var cards []int
		bits := 0
		for bits <= 128 {
			card := 2 + r.Intn(int(MaxCardinality)-2)
			w := 1
			for 1<<w <= card { // ⌈log2(card+1)⌉ via smallest w with 2^w > card
				w++
			}
			cards = append(cards, card)
			bits += w
		}
		if got := KeyBits(cards); got != bits {
			t.Fatalf("trial %d: KeyBits(%v) = %d, want %d", trial, cards, got, bits)
		}
		if !mustPanic(func() { NewCodec(cards) }) {
			t.Fatalf("trial %d: NewCodec accepted cards %v (%d bits)", trial, cards, bits)
		}
	}
}

func TestCodecUnpackableSchema(t *testing.T) {
	// 70 binary attributes need 140 bits: past the limit, so no codec.
	cards := make([]int, 70)
	for i := range cards {
		cards[i] = 2
	}
	if b := KeyBits(cards); b != 140 {
		t.Fatalf("KeyBits = %d, want 140", b)
	}
	if !mustPanic(func() { NewCodec(cards) }) {
		t.Fatal("NewCodec accepted 70 binary attributes")
	}
}

func TestCodecStraddlesWordBoundary(t *testing.T) {
	// 18 seven-bit fields fill 63 bits of each word; the two-bit field
	// after them fits neither word alone, so it straddles bit 64: the
	// widths sum to exactly 128 and the schema must still pack, round
	// trip and stay injective.
	cards := make([]int, 19)
	for i := range cards {
		cards[i] = 100
	}
	cards[18] = 3
	if b := KeyBits(cards); b != MaxKeyBits {
		t.Fatalf("KeyBits = %d, want %d", b, MaxKeyBits)
	}
	c := NewCodec(cards)
	if c.split != 18 || c.splitLo != 1 || c.splitShift != 63 {
		t.Fatalf("split field %d (%d low bits, word-1 shift %d), want 18 (1, 63)", c.split, c.splitLo, c.splitShift)
	}
	r := rand.New(rand.NewSource(5))
	seen := make(map[PackedKey]string)
	for n := 0; n < 5000; n++ {
		p := quickPattern(r, cards)
		if n%4 == 0 {
			p[18] = uint8(n / 4 % 4) // every code of the split field, wildcard (3) included
			if p[18] == 3 {
				p[18] = Wildcard
			}
		}
		k := c.PackedKey(p)
		if prev, dup := seen[k]; dup && prev != p.Key() {
			t.Fatalf("patterns %v and %v share key %v", FromKey(prev), p, k)
		}
		seen[k] = p.Key()
		if got := c.Unpack(k); !got.Equal(p) {
			t.Fatalf("Unpack(PackedKey(%v)) = %v", p, got)
		}
		if ks := c.PackedKeyString(p.Key()); ks != k {
			t.Fatalf("PackedKeyString(%v) = %v, PackedKey = %v", p, ks, k)
		}
	}
}

// TestMaskedMatchesPattern checks the masked compare against
// Pattern.Matches under the raw layout, the bit-compact one and the
// bit-compact one whose last field straddles the two words. Values are
// drawn from a few low codes so that matches are common.
func TestMaskedMatchesPattern(t *testing.T) {
	straddle := make([]int, 19)
	for i := range straddle {
		straddle[i] = 100
	}
	straddle[18] = 3
	for _, tc := range []struct {
		name  string
		cards []int
		codec *Codec
	}{
		{"raw", []int{3, 4, 2, 5, 3, 3, 2, 4, 3, 2, 3}, NewRawCodec(11)},
		{"compact", []int{3, 4, 2, 5, 3, 3, 2, 4, 3, 2, 3}, NewCodec([]int{3, 4, 2, 5, 3, 3, 2, 4, 3, 2, 3})},
		{"straddle", straddle, NewCodec(straddle)},
	} {
		r := rand.New(rand.NewSource(9))
		draw := func(wild bool) Pattern {
			p := make(Pattern, len(tc.cards))
			for i := range p {
				p[i] = uint8(r.Intn(min(3, tc.cards[i])))
				if wild && r.Intn(4) != 0 {
					p[i] = Wildcard
				}
			}
			return p
		}
		matched := 0
		for n := 0; n < 20000; n++ {
			p, combo := draw(true), draw(false)
			if n%3 == 0 {
				for i := range p {
					if p[i] != Wildcard {
						combo[i] = p[i]
					}
				}
			}
			want := p.Matches(combo)
			m, k := tc.codec.Masked(p), tc.codec.PackedKey(combo)
			if got := m.Matches(&k); got != want {
				t.Fatalf("%s: Masked(%v).Matches(%v) = %v, want %v", tc.name, p, combo, got, want)
			}
			if want {
				matched++
			}
		}
		if matched < 5000 {
			t.Fatalf("%s: only %d of 20000 pairs matched", tc.name, matched)
		}
	}
}

// TestCompareValuesSortsLikeStrings checks CompareValues under
// NewKeyCodec's raw layout (up to RawKeyDim attributes), the bit-compact
// one and the bit-compact one with a straddling field: sorting full
// combinations by it gives sort.Strings order of their raw byte
// strings, and Value reads each attribute back.
func TestCompareValuesSortsLikeStrings(t *testing.T) {
	straddle := make([]int, 25)
	for i := range straddle {
		straddle[i] = 31
	}
	for _, cards := range [][]int{
		{2},
		{3, 4, 2, 5, 3, 3, 2, 4, 3, 2, 3},
		{255, 200, 7, 255, 2, 3, 9, 4, 100, 2, 3, 4, 5, 6, 7, 255},
		{3, 4, 2, 5, 3, 3, 2, 4, 3, 2, 3, 3, 4, 2, 5, 3, 3, 2, 4, 3},
		straddle,
	} {
		c := NewKeyCodec(cards)
		if c.Raw() != (len(cards) <= RawKeyDim) {
			t.Fatalf("%d attributes: raw layout = %v", len(cards), c.Raw())
		}
		r := rand.New(rand.NewSource(int64(len(cards))))
		strs := make([]string, 500)
		keys := make([]PackedKey, len(strs))
		for n := range strs {
			combo := make(Pattern, len(cards))
			for i, card := range cards {
				// Few values per attribute, so neighbours share prefixes.
				combo[i] = uint8(r.Intn(min(card, 3)))
				if r.Intn(8) == 0 {
					combo[i] = uint8(card - 1)
				}
			}
			strs[n], keys[n] = combo.Key(), c.PackedKey(combo)
			for i, v := range combo {
				if got := c.Value(keys[n], i); got != v {
					t.Fatalf("%d attributes: Value(%v, %d) = %d, want %d", len(cards), combo, i, got, v)
				}
			}
		}
		sort.Strings(strs)
		sort.Slice(keys, func(i, j int) bool { return c.CompareValues(keys[i], keys[j]) < 0 })
		for n, k := range keys {
			if got := string(c.Unpack(k)); got != strs[n] {
				t.Fatalf("%d attributes: entry %d in value order is %v, sort.Strings has %v", len(cards), n, Pattern(got), Pattern(strs[n]))
			}
		}
	}
}

func BenchmarkCodecPackedKey(b *testing.B) {
	cards := make([]int, 15)
	for i := range cards {
		cards[i] = 2
	}
	c := NewCodec(cards)
	p := All(15)
	p[3], p[7] = 1, 0
	for i := 0; i < b.N; i++ {
		_ = c.PackedKey(p)
	}
}
