package engine

import "coverage/internal/pattern"

// comboKey is the engine's internal map key for one distinct value
// combination. On schemas whose packed field width fits 128 bits it is
// the two-word pattern.PackedKey — hashed and compared in a handful of
// instructions, inserted without allocating — with str left empty; on
// wider schemas pk is zero and str carries the raw value-code bytes
// (the historical representation). The two forms never mix within one
// engine: every key flows through the engine's keyCodec, so map
// lookups always compare like with like.
type comboKey struct {
	pk  pattern.PackedKey
	str string
}

// keyCodec translates between the engine's three combination
// representations — raw row bytes, raw key strings (the persistence
// and window-log form) and comboKeys — choosing the packed form
// whenever the schema allows it.
type keyCodec struct {
	codec *pattern.Codec
	// packed selects the two-word representation; false falls back to
	// string keys (schema wider than 128 bits, or the test override).
	packed bool
}

func newKeyCodec(cards []int, forceString bool) *keyCodec {
	c := pattern.NewCodec(cards)
	kc := &keyCodec{codec: c, packed: c.Packable() && !forceString}
	if kc.packed {
		// The tables only hash their keys, so the bit-compact layout
		// buys nothing: where the schema fits, the byte-aligned raw
		// codec packs row bytes with two word loads instead of a
		// per-attribute loop. Resolved here, before any key exists, so
		// every comboKey in the engine uses one layout.
		if raw := pattern.NewRawCodec(len(cards)); raw.Packable() {
			kc.codec = raw
		}
	}
	return kc
}

// ofRow returns the key of one full value combination held as raw row
// bytes. On the packed path this allocates nothing; the fallback
// allocates the string copy the old map inserts paid anyway.
func (kc *keyCodec) ofRow(row []uint8) comboKey {
	if kc.packed {
		return comboKey{pk: kc.codec.PackedKey(pattern.Pattern(row))}
	}
	return comboKey{str: string(row)}
}

// ofString returns the key of a combination held as its raw key string
// (window-log entries, persisted state).
func (kc *keyCodec) ofString(k string) comboKey {
	if kc.packed {
		return comboKey{pk: kc.codec.PackedKeyString(k)}
	}
	return comboKey{str: k}
}

// pattern decodes a comboKey back into a freshly allocated Pattern.
func (kc *keyCodec) pattern(k comboKey) pattern.Pattern {
	if kc.packed {
		return kc.codec.Unpack(k.pk)
	}
	return pattern.Pattern(k.str)
}

// str decodes a comboKey into its raw key-string form.
func (kc *keyCodec) str(k comboKey) string {
	if kc.packed {
		return string(kc.codec.Unpack(k.pk))
	}
	return k.str
}
