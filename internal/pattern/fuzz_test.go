package pattern

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzParse feeds arbitrary strings to the pattern parser: it must
// never panic, and anything it accepts must round-trip through String.
func FuzzParse(f *testing.F) {
	cards := []int{2, 3, 12, 2}
	for _, seed := range []string{"X1X0", "xxxx", "01[11]1", "****", "[999]XXX", "1?", "[", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s, cards)
		if err != nil {
			return
		}
		if err := p.Validate(cards); err != nil {
			t.Fatalf("Parse(%q) accepted invalid pattern %v: %v", s, p, err)
		}
		back, err := Parse(p.String(), cards)
		if err != nil {
			t.Fatalf("Parse(String(Parse(%q))) failed: %v", s, err)
		}
		if !p.Equal(back) {
			t.Fatalf("round trip changed %q: %v vs %v", s, p, back)
		}
	})
}

// FuzzKeyRoundTrip checks that Key/FromKey is the identity for
// arbitrary byte payloads of the right dimension.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		p := Pattern(b)
		if !FromKey(p.Key()).Equal(p) {
			t.Fatalf("Key round trip changed %v", p)
		}
	})
}

// fuzzCards turns fuzz bytes into a cardinality vector of the kind
// dataset.NewSchema accepts: one attribute per byte of spec[1:], of
// cardinality 1 + b%254, dropping the bytes that would push the key past
// MaxKeyBits. When spec[0] is odd the vector is then topped up to
// exactly MaxKeyBits with fields of up to 8 bits, which is where a field
// ends at or straddles the word boundary.
func fuzzCards(spec []byte) []int {
	if len(spec) == 0 {
		return nil
	}
	var cards []int
	width := 0
	for _, b := range spec[1:] {
		card := 1 + int(b)%(MaxCardinality-1)
		if w := KeyBits([]int{card}); width+w <= MaxKeyBits {
			cards = append(cards, card)
			width += w
		}
	}
	for spec[0]&1 == 1 && width < MaxKeyBits {
		w := min(MaxKeyBits-width, 8)
		cards = append(cards, 1<<(w-1)) // the smallest cardinality of width w
		width += w
	}
	return cards
}

// FuzzCodecRoundTrip checks both key layouts over random schemas up to
// the 128-bit limit: the packed key is the only identity a combination
// has in the engine and the index, so a key must decode back to its
// pattern, the string form must pack to the same key, and two distinct
// patterns must never share one. SetField must give, for every
// attribute, the key of the pattern with that attribute wildcarded or
// set to another value.
func FuzzCodecRoundTrip(f *testing.F) {
	binary64 := append([]byte{0}, bytes.Repeat([]byte{1}, 64)...)    // 64 binary attributes: 128 bits
	maxCard16 := append([]byte{0}, bytes.Repeat([]byte{253}, 16)...) // 16 × 254 values: 128 bits
	straddle := append([]byte{1}, bytes.Repeat([]byte{99}, 18)...)   // 18 × 7 bits, topped up by a split 2-bit field
	card31 := append([]byte{0}, bytes.Repeat([]byte{30}, 25)...)     // 25 × 5 bits: attribute 24 straddles the words
	f.Add(binary64, int64(1))
	f.Add(maxCard16, int64(2))
	f.Add(straddle, int64(3))
	f.Add(card31, int64(6))
	f.Add([]byte{1, 7, 200, 3, 0, 31}, int64(4))
	f.Add([]byte{0, 2, 3, 4}, int64(5))
	f.Fuzz(func(t *testing.T, spec []byte, seed int64) {
		cards := fuzzCards(spec)
		if len(cards) == 0 {
			return
		}
		codecs := []*Codec{NewCodec(cards)}
		if len(cards) <= RawKeyDim {
			codecs = append(codecs, NewRawCodec(len(cards)))
		}
		r := rand.New(rand.NewSource(seed))
		for _, c := range codecs {
			seen := make(map[PackedKey]string)
			for n := 0; n < 200; n++ {
				p := make(Pattern, len(cards))
				for i := range p {
					if r.Intn(3) == 0 {
						p[i] = Wildcard
					} else {
						p[i] = uint8(r.Intn(cards[i]))
					}
				}
				k := c.PackedKey(p)
				if got := c.Unpack(k); !got.Equal(p) {
					t.Fatalf("raw=%v cards %v: Unpack(PackedKey(%v)) = %v", c.Raw(), cards, p, got)
				}
				if ks := c.PackedKeyString(string(p)); ks != k {
					t.Fatalf("raw=%v cards %v: PackedKeyString(%v) = %v, PackedKey = %v", c.Raw(), cards, p, ks, k)
				}
				if prev, dup := seen[k]; dup && prev != string(p) {
					t.Fatalf("raw=%v cards %v: patterns %v and %v share key %v", c.Raw(), cards, Pattern(prev), p, k)
				}
				seen[k] = string(p)
				q := p.Clone()
				for i, v := range p {
					q[i] = Wildcard
					parent := c.SetField(k, i, Wildcard)
					if want := c.PackedKey(q); parent != want {
						t.Fatalf("raw=%v cards %v: SetField(PackedKey(%v), %d, X) = %v, packing %v gives %v",
							c.Raw(), cards, p, i, parent, q, want)
					}
					q[i] = uint8(r.Intn(cards[i]))
					if got, want := c.SetField(parent, i, q[i]), c.PackedKey(q); got != want {
						t.Fatalf("raw=%v cards %v: SetField(PackedKey(%v), %d, %d) = %v, packing %v gives %v",
							c.Raw(), cards, p, i, q[i], got, q, want)
					}
					q[i] = v
				}
			}
		}
	})
}
