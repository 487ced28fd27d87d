package engine

import "coverage/internal/pattern"

// keyCodec translates between the engine's three combination
// representations: raw row bytes, raw key strings (the persistence and
// window-log form) and the two-word pattern.PackedKey that every count
// table, batch accumulator and mutation log is keyed by. The tables
// only hash their keys, so the codec is the byte-aligned raw one where
// the schema has one (a row then packs with two word loads instead of a
// per-attribute loop) and the bit-compact one past pattern.RawKeyDim
// attributes. It is resolved once at construction, so every key in the
// engine uses one layout.
type keyCodec struct {
	codec *pattern.Codec
}

func newKeyCodec(cards []int) *keyCodec {
	if len(cards) <= pattern.RawKeyDim {
		return &keyCodec{codec: pattern.NewRawCodec(len(cards))}
	}
	return &keyCodec{codec: pattern.NewCodec(cards)}
}

// ofRow returns the key of one full value combination held as raw row
// bytes, without allocating.
func (kc *keyCodec) ofRow(row []uint8) pattern.PackedKey {
	return kc.codec.PackedKey(pattern.Pattern(row))
}

// ofString returns the key of a combination held as its raw key string
// (window-log entries, persisted state).
func (kc *keyCodec) ofString(k string) pattern.PackedKey {
	return kc.codec.PackedKeyString(k)
}

// pattern decodes a key back into a freshly allocated Pattern.
func (kc *keyCodec) pattern(k pattern.PackedKey) pattern.Pattern {
	return kc.codec.Unpack(k)
}

// str decodes a key into its raw key-string form.
func (kc *keyCodec) str(k pattern.PackedKey) string {
	return string(kc.codec.Unpack(k))
}
