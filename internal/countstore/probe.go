package countstore

import (
	"encoding/binary"
	"math/bits"

	"coverage/internal/pattern"
)

// Probe is the read-optimized packed-key count table backing the
// immutable base oracles: built once (inserts only), then probed
// millions of times by the deepest-level coverage fast path. It
// trades Flat's mutation machinery (backward-shift deletes,
// negation) for a SWAR group layout in the style
// of Swiss tables: slots are grouped 8-wide, each group summarized by
// one uint64 of control bytes (0 = empty, else 0x80 | the hash's top
// tag bits), so a probe tests a whole group against the key's tag
// with a handful of ALU ops and usually touches the key array exactly
// once. On the combo-probe workload this layout outruns both Flat's
// plain linear probing and the runtime map.
//
// The lattice walk (mup.ParallelPatternBreaker) builds one per level
// as its set of covered pattern keys, each stored with count 1.
type Probe struct {
	ctrl   []uint64 // one word of 8 control bytes per group
	keys   []pattern.PackedKey
	counts []int64
	gmask  uint64 // group count - 1
	live   int
}

const (
	probeLoBits = 0x0101010101010101
	probeHiBits = 0x8080808080808080
)

// matchTag returns a bitmask with 0x80 set in every control byte of c
// equal to tag (the classic SWAR zero-byte trick on c XOR tag).
func matchTag(c, tag uint64) uint64 {
	x := c ^ (tag * probeLoBits)
	return (x - probeLoBits) &^ x & probeHiBits
}

// matchFree returns the same mask for empty (zero) control bytes.
func matchFree(c uint64) uint64 {
	return (c - probeLoBits) &^ c & probeHiBits
}

// NewProbe builds a table pre-sized for about hint keys.
func NewProbe(hint int) *Probe {
	groups := 2
	for hint > groups*8*3/4 {
		groups <<= 1
	}
	return &Probe{
		ctrl:   make([]uint64, groups),
		keys:   make([]pattern.PackedKey, groups*8),
		counts: make([]int64, groups*8),
		gmask:  uint64(groups - 1),
	}
}

// Get returns the count stored for k, 0 if absent.
func (p *Probe) Get(k pattern.PackedKey) int64 {
	h := hashKey(k)
	tag := h>>57 | 0x80
	g := h & p.gmask
	for {
		c := p.ctrl[g]
		for m := matchTag(c, tag); m != 0; m &= m - 1 {
			i := int(g)*8 + bits.TrailingZeros64(m)>>3
			if p.keys[i] == k {
				return p.counts[i]
			}
		}
		if matchFree(c) != 0 {
			return 0
		}
		g = (g + 1) & p.gmask
	}
}

// GetRaw is Get over a pattern's raw bytes, for tables keyed by the
// byte-aligned raw codec (pattern.NewRawCodec): the key is the bytes
// loaded little-endian into the two key words. Fusing the load, the
// hash and the group probe into one call matters here — this is the
// deepest-level coverage probe, called tens of millions of times per
// search, and neither the codec's packing nor Get can inline into the
// caller, so the fused form saves two call frames per probe.
func (p *Probe) GetRaw(b []uint8) int64 {
	// The key words stay in scalar registers end to end: building a
	// PackedKey array here would spill it to the stack and put a
	// store-to-load forward on the probe's critical path.
	var k0, k1 uint64
	switch {
	case len(b) > 8:
		k0 = binary.LittleEndian.Uint64(b)
		if len(b) == 16 {
			k1 = binary.LittleEndian.Uint64(b[8:])
		} else {
			// Overlapping load; the bytes before position 8 shift off.
			k1 = binary.LittleEndian.Uint64(b[len(b)-8:]) >> (8 * (16 - uint(len(b))))
		}
	case len(b) == 8:
		k0 = binary.LittleEndian.Uint64(b)
	case len(b) >= 4:
		lo := uint64(binary.LittleEndian.Uint32(b))
		hi := uint64(binary.LittleEndian.Uint32(b[len(b)-4:]))
		k0 = lo | hi<<(8*(uint(len(b))-4))
	default:
		for i := len(b) - 1; i >= 0; i-- {
			k0 = k0<<8 | uint64(b[i])
		}
	}
	// hashKey, inlined over the scalar words.
	h := k0*0x9E3779B97F4A7C15 ^ k1*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	tag := h>>57 | 0x80
	g := h & p.gmask
	for {
		c := p.ctrl[g]
		for m := matchTag(c, tag); m != 0; m &= m - 1 {
			i := int(g)*8 + bits.TrailingZeros64(m)>>3
			if p.keys[i][0] == k0 && p.keys[i][1] == k1 {
				return p.counts[i]
			}
		}
		if matchFree(c) != 0 {
			return 0
		}
		g = (g + 1) & p.gmask
	}
}

// Set inserts or updates k. Counts are never zero — the builders
// prune dead combinations before loading the table, and the probe
// loop's stop-at-empty rule has no tombstones to fall back on.
func (p *Probe) Set(k pattern.PackedKey, n int64) {
	if n == 0 {
		panic("countstore: Probe.Set with zero count")
	}
	if (p.live+1)*4 > len(p.keys)*3 {
		p.grow()
	}
	p.insert(k, n)
}

func (p *Probe) insert(k pattern.PackedKey, n int64) {
	h := hashKey(k)
	tag := h>>57 | 0x80
	g := h & p.gmask
	for {
		c := p.ctrl[g]
		for m := matchTag(c, tag); m != 0; m &= m - 1 {
			i := int(g)*8 + bits.TrailingZeros64(m)>>3
			if p.keys[i] == k {
				p.counts[i] = n
				return
			}
		}
		if f := matchFree(c); f != 0 {
			j := bits.TrailingZeros64(f) >> 3
			i := int(g)*8 + j
			p.ctrl[g] |= tag << (8 * uint(j))
			p.keys[i] = k
			p.counts[i] = n
			p.live++
			return
		}
		g = (g + 1) & p.gmask
	}
}

// grow rehashes into a doubled table. Builders size the table exactly
// up front (the distinct-combo count is known), so this is the
// defensive path, not the expected one. It is the same stop-the-world
// copy Flat.grow makes.
func (p *Probe) grow() {
	old := *p
	groups := (int(p.gmask) + 1) * 2
	p.ctrl = make([]uint64, groups)
	p.keys = make([]pattern.PackedKey, groups*8)
	p.counts = make([]int64, groups*8)
	p.gmask = uint64(groups - 1)
	p.live = 0
	for i, n := range old.counts {
		if n != 0 {
			p.insert(old.keys[i], n)
		}
	}
}

// Len is the number of live keys.
func (p *Probe) Len() int { return p.live }

// Range calls fn for every key in unspecified order.
func (p *Probe) Range(fn func(k pattern.PackedKey, n int64)) {
	for i, n := range p.counts {
		if n != 0 {
			fn(p.keys[i], n)
		}
	}
}
