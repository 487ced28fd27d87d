package pattern

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PackedKey is a compact, comparable map key for patterns: two machine
// words that hash and compare in a handful of instructions, versus the
// variable-length byte string of Pattern.Key. Every schema
// dataset.NewSchema accepts has one (see KeyBits).
type PackedKey [2]uint64

// MaxKeyBits is the widest packed key: the two words of a PackedKey.
const MaxKeyBits = 128

// KeyBits returns the packed key width of a cardinality vector,
// Σ⌈log2(ci+1)⌉: each attribute's values plus the wildcard. This is the
// schema limit: dataset.NewSchema refuses a schema whose KeyBits exceeds
// MaxKeyBits, so every codec can take the fit as given.
func KeyBits(cards []int) int {
	n := 0
	for _, card := range cards {
		n += bits.Len(uint(card))
	}
	return n
}

// Codec packs patterns over a fixed cardinality vector into PackedKeys.
// Each attribute occupies ⌈log2(ci+1)⌉ bits (its values plus the
// wildcard, encoded as the value ci), placed first-fit: in word 0 while
// it has room, else in word 1. A field that fits in neither word — only
// possible when the widths sum to within a few bits of MaxKeyBits —
// straddles them: its low bits fill the top of word 0 and the rest start
// at word 1's next free bit; every later field then lands in word 1.
// The zero Codec is not valid; use NewCodec or NewRawCodec.
type Codec struct {
	shift []uint
	word  []uint8
	xcode []uint8
	mask  []uint64
	// split is the attribute whose field straddles the two words, or -1.
	// Its low splitLo bits sit at shift[split] in word 0, the remaining
	// ones at splitShift in word 1.
	split      int
	splitLo    uint
	splitShift uint
	// raw marks the byte-aligned layout of NewRawCodec: every field is
	// one whole byte, so PackedKey degenerates to two little-endian
	// word loads of the pattern's raw bytes.
	raw bool
}

// NewCodec builds the bit-compact codec for the cardinality vector,
// which must fit a PackedKey: KeyBits(cards) <= MaxKeyBits.
func NewCodec(cards []int) *Codec {
	if b := KeyBits(cards); b > MaxKeyBits {
		panic(fmt.Sprintf("pattern: %d-bit key for a %d-attribute schema exceeds %d bits", b, len(cards), MaxKeyBits))
	}
	c := &Codec{
		shift: make([]uint, len(cards)),
		word:  make([]uint8, len(cards)),
		xcode: make([]uint8, len(cards)),
		mask:  make([]uint64, len(cards)),
		split: -1,
	}
	var used [2]uint
	for i, card := range cards {
		c.xcode[i] = uint8(card)
		w := uint(bits.Len(uint(card))) // values 0..card need this many bits
		c.mask[i] = 1<<w - 1
		switch {
		case used[0]+w <= 64:
			c.shift[i], c.word[i] = used[0], 0
			used[0] += w
		case used[1]+w <= 64:
			c.shift[i], c.word[i] = used[1], 1
			used[1] += w
		default:
			// The widths fit 128 bits in total, so the two words'
			// leftovers hold this field between them.
			c.shift[i], c.word[i] = used[0], 0
			c.split, c.splitLo, c.splitShift = i, 64-used[0], used[1]
			used[1] += w - c.splitLo
			used[0] = 64
		}
	}
	return c
}

// RawKeyDim is the widest schema the byte-aligned raw layout can
// carry: 16 one-byte fields fill the two key words exactly.
const RawKeyDim = 16

// NewRawCodec builds the byte-aligned codec for a dim-attribute
// schema, dim <= RawKeyDim: each field occupies one whole byte (shift
// 8·(i mod 8), word i/8) and the wildcard keeps its raw 0xFF encoding,
// so the packed key of a pattern is literally its bytes loaded
// little-endian into the two key words — PackedKey costs two word loads
// instead of a per-attribute shift-and-mask loop. The layout spends 8
// bits per field no matter the cardinality, which costs a hashed table
// nothing.
func NewRawCodec(dim int) *Codec {
	if dim > RawKeyDim {
		panic(fmt.Sprintf("pattern: raw codec for %d attributes, max is %d", dim, RawKeyDim))
	}
	c := &Codec{
		shift: make([]uint, dim),
		word:  make([]uint8, dim),
		xcode: make([]uint8, dim),
		mask:  make([]uint64, dim),
		split: -1,
		raw:   true,
	}
	for i := 0; i < dim; i++ {
		c.shift[i] = uint(8 * (i % 8))
		c.word[i] = uint8(i / 8)
		c.xcode[i] = Wildcard
		c.mask[i] = 0xFF
	}
	return c
}

// NewKeyCodec returns the codec every count table and index keys full
// value combinations by. The tables only hash their keys, so it is the
// byte-aligned raw layout where the schema has one (a row then packs
// with two word loads instead of a per-attribute loop) and the
// bit-compact one past RawKeyDim attributes.
func NewKeyCodec(cards []int) *Codec {
	if len(cards) <= RawKeyDim {
		return NewRawCodec(len(cards))
	}
	return NewCodec(cards)
}

// Raw reports whether this is the byte-aligned raw layout.
func (c *Codec) Raw() bool { return c.raw }

// splitHigh returns the word-1 bits of the straddling field holding v.
// The word-0 bits come from the per-field loop: a left shift drops
// whatever passes bit 63.
func (c *Codec) splitHigh(v uint8) uint64 {
	code := uint64(v)
	if v == Wildcard {
		code = uint64(c.xcode[c.split])
	}
	return code >> c.splitLo << c.splitShift
}

// PackedKey returns the packed key of p without allocating; p must use
// the codec's cardinality vector.
func (c *Codec) PackedKey(p Pattern) PackedKey {
	if c.raw {
		return rawKeyBytes(p)
	}
	var k PackedKey
	for i, v := range p {
		code := uint64(v)
		if v == Wildcard {
			code = uint64(c.xcode[i])
		}
		k[c.word[i]] |= code << c.shift[i]
	}
	if c.split >= 0 {
		k[1] |= c.splitHigh(p[c.split])
	}
	return k
}

// rawKeyBytes loads a pattern's raw bytes little-endian into the two
// key words — the raw layout's whole packing step. Tails shorter than
// a word are assembled from overlapping narrower loads where the
// length allows; the wildcard byte 0xFF passes through unchanged (it
// is its own xcode). Identical to the generic field loop over
// NewRawCodec's layout, just without the per-attribute work.
func rawKeyBytes(b []uint8) PackedKey {
	var k PackedKey
	switch {
	case len(b) > 8:
		k[0] = binary.LittleEndian.Uint64(b)
		if len(b) == 16 {
			k[1] = binary.LittleEndian.Uint64(b[8:])
		} else {
			// Overlapping load: bytes d-8..d-1, shifted so the bytes
			// before position 8 fall off.
			k[1] = binary.LittleEndian.Uint64(b[len(b)-8:]) >> (8 * (16 - uint(len(b))))
		}
	case len(b) == 8:
		k[0] = binary.LittleEndian.Uint64(b)
	case len(b) >= 4:
		lo := uint64(binary.LittleEndian.Uint32(b))
		hi := uint64(binary.LittleEndian.Uint32(b[len(b)-4:]))
		k[0] = lo | hi<<(8*(uint(len(b))-4))
	default:
		for i := len(b) - 1; i >= 0; i-- {
			k[0] = k[0]<<8 | uint64(b[i])
		}
	}
	return k
}

// SetField returns k with attribute i's field set to v, a value or
// Wildcard: the key of the parent that generalizes attribute i, or of a
// child that fixes it, at a few word operations instead of packing the
// pattern again. The field straddling the two words is set in both. k
// must have been produced by this codec.
func (c *Codec) SetField(k PackedKey, i int, v uint8) PackedKey {
	code := uint64(v)
	if v == Wildcard {
		code = uint64(c.xcode[i])
	}
	w := c.word[i]
	k[w] = k[w]&^(c.mask[i]<<c.shift[i]) | code<<c.shift[i]
	if i == c.split {
		k[1] = k[1]&^(c.mask[i]>>c.splitLo<<c.splitShift) | code>>c.splitLo<<c.splitShift
	}
	return k
}

// PackedKeyString is PackedKey over a pattern held as its raw
// byte-string key (as produced by Pattern.Key), avoiding the []byte
// copy a string→Pattern conversion would cost. s must have the codec's
// dimension.
func (c *Codec) PackedKeyString(s string) PackedKey {
	var k PackedKey
	for i := 0; i < len(s); i++ {
		code := uint64(s[i])
		if s[i] == Wildcard {
			code = uint64(c.xcode[i])
		}
		k[c.word[i]] |= code << c.shift[i]
	}
	if c.split >= 0 {
		k[1] |= c.splitHigh(s[c.split])
	}
	return k
}

// MaskedKey is a pattern in packed form for matching against the packed
// keys of full value combinations: Key holds the codes of the pattern's
// deterministic elements and Mask every bit of their fields, in both
// words where a field straddles them.
type MaskedKey struct {
	Key, Mask PackedKey
}

// Matches reports whether the combination with packed key k agrees
// with the pattern on every deterministic element: one masked compare
// of the two words. Both sides are taken by pointer: the compiler keeps
// a two-word array value in memory, so copying one per call costs
// several times the compare.
func (m *MaskedKey) Matches(k *PackedKey) bool {
	return (k[0]^m.Key[0])&m.Mask[0]|(k[1]^m.Key[1])&m.Mask[1] == 0
}

// Masked returns p's MaskedKey under the codec's layout, raw or bit
// compact; p must use the codec's cardinality vector.
func (c *Codec) Masked(p Pattern) MaskedKey {
	var m MaskedKey
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		m.Key[c.word[i]] |= uint64(v) << c.shift[i]
		m.Mask[c.word[i]] |= c.mask[i] << c.shift[i]
	}
	if c.split >= 0 && p[c.split] != Wildcard {
		m.Key[1] |= c.splitHigh(p[c.split])
		m.Mask[1] |= c.mask[c.split] >> c.splitLo << c.splitShift
	}
	return m
}

// Dim returns the number of attributes the codec packs.
func (c *Codec) Dim() int { return len(c.shift) }

// Unpack decodes a key produced by PackedKey back into the pattern it
// encodes. The key must have been produced by this codec (or one built
// over the same cardinality vector).
func (c *Codec) Unpack(k PackedKey) Pattern {
	return c.AppendUnpack(make(Pattern, 0, len(c.shift)), k)
}

// AppendUnpack is Unpack into a caller-provided buffer: it appends the
// decoded pattern's elements to dst and returns the extended slice.
// Hot loops reuse one buffer across decodes instead of allocating.
func (c *Codec) AppendUnpack(dst []uint8, k PackedKey) []uint8 {
	for i := range c.shift {
		code := c.Value(k, i)
		if code == c.xcode[i] {
			code = Wildcard
		}
		dst = append(dst, code)
	}
	return dst
}

// Value returns attribute i's code in k: its value, or the field's
// wildcard code (see NewCodec and NewRawCodec) where k holds a
// wildcard.
func (c *Codec) Value(k PackedKey, i int) uint8 {
	if i == c.split {
		return uint8((k[0]>>c.shift[i] | k[1]>>c.splitShift<<c.splitLo) & c.mask[i])
	}
	return uint8(k[c.word[i]] >> c.shift[i] & c.mask[i])
}

// CompareValues orders the keys of two full value combinations by their
// values, attribute 0 first: the sort.Strings order of their raw byte
// strings.
func (c *Codec) CompareValues(a, b PackedKey) int {
	for i := range c.shift {
		if va, vb := c.Value(a, i), c.Value(b, i); va != vb {
			return cmp.Compare(va, vb)
		}
	}
	return 0
}
