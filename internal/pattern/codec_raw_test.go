package pattern

import (
	"math/rand"
	"testing"
)

// refRawKey is the generic per-field packing loop over the raw
// layout's geometry — the reference rawKeyBytes must agree with.
func refRawKey(p Pattern) PackedKey {
	var k PackedKey
	for i, v := range p {
		k[i/8] |= uint64(v) << (8 * (i % 8))
	}
	return k
}

// TestRawCodecMatchesGenericLayout drives every dimension the raw
// layout supports with random patterns (wildcards included) and checks
// that the bulk-load fast path, the string fast path, the reference
// field loop and Unpack all agree.
func TestRawCodecMatchesGenericLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= RawKeyDim; dim++ {
		c := NewRawCodec(dim)
		if !c.Raw() {
			t.Fatalf("dim %d: raw codec reports the compact layout", dim)
		}
		for trial := 0; trial < 200; trial++ {
			p := make(Pattern, dim)
			for i := range p {
				if rng.Intn(4) == 0 {
					p[i] = Wildcard
				} else {
					p[i] = uint8(rng.Intn(250))
				}
			}
			want := refRawKey(p)
			if got := c.PackedKey(p); got != want {
				t.Fatalf("dim %d: PackedKey(%v) = %v, want %v", dim, p, got, want)
			}
			if got := c.PackedKeyString(string(p)); got != want {
				t.Fatalf("dim %d: PackedKeyString(%v) = %v, want %v", dim, p, got, want)
			}
			up := c.Unpack(want)
			if string(up) != string(p) {
				t.Fatalf("dim %d: Unpack(PackedKey(%v)) = %v", dim, p, up)
			}
		}
	}
}

// TestRawCodecDimensionLimit pins the layout's capacity: 16 one-byte
// fields fit the two key words, 17 do not.
func TestRawCodecDimensionLimit(t *testing.T) {
	if mustPanic(func() { NewRawCodec(RawKeyDim) }) {
		t.Errorf("dim %d should have a raw codec", RawKeyDim)
	}
	if !mustPanic(func() { NewRawCodec(RawKeyDim + 1) }) {
		t.Errorf("dim %d should have no raw codec", RawKeyDim+1)
	}
}

// TestRawCodecInjective checks distinct patterns map to distinct keys
// at a fixed dimension — the flat table's correctness precondition.
func TestRawCodecInjective(t *testing.T) {
	c := NewRawCodec(13)
	rng := rand.New(rand.NewSource(11))
	seen := make(map[PackedKey]string)
	for trial := 0; trial < 5000; trial++ {
		p := make(Pattern, 13)
		for i := range p {
			p[i] = uint8(rng.Intn(6))
		}
		k := c.PackedKey(p)
		if prev, ok := seen[k]; ok && prev != string(p) {
			t.Fatalf("collision: %v and %v both pack to %v", Pattern(prev), p, k)
		}
		seen[k] = string(p)
	}
}
