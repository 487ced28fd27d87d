package index

import (
	"testing"

	"coverage/internal/bitvec"
	"coverage/internal/datagen"
	"coverage/internal/pattern"
)

// Ablation: the production probe versus (a) the same inverted indices
// probed naively — full-width ANDs in attribute order via MatchVector,
// then a bit-by-bit dot product with the counts — and (b) a literal
// scan over the raw rows (Definition 2). The production kernel ANDs
// sparsest vector first, only over the intersection of the vectors'
// nonzero word windows, reading the sparsest vector in place rather
// than copying it, tightening the window and exiting early once it
// empties; its last AND is fused with the count, pricing a dense word
// from the bit-sliced count planes (Σ_b popcount(m & plane_b) << b) and
// a sparse one match by match.
//
// Run with: go test -bench=ProbeAblation ./internal/index

func ablationPatterns(cards []int) []pattern.Pattern {
	// A mix of levels: general (cheap, dense) through specific
	// (sparse, where the window pays off).
	specs := []int{1, 3, 6, 9, 12}
	var out []pattern.Pattern
	for _, lvl := range specs {
		p := pattern.All(len(cards))
		for i := 0; i < lvl; i++ {
			p[(i*5)%len(cards)] = uint8(i % cards[(i*5)%len(cards)])
		}
		out = append(out, p)
	}
	return out
}

func BenchmarkProbeAblationProduction(b *testing.B) {
	ds := datagen.AirBnB(100000, 13, 42)
	ix := Build(ds)
	pr := ix.NewProber()
	pats := ablationPatterns(ds.Cards())
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += pr.Coverage(pats[i%len(pats)])
	}
	_ = sink
}

func BenchmarkProbeAblationUnorderedFullWidth(b *testing.B) {
	ds := datagen.AirBnB(100000, 13, 42)
	ix := Build(ds)
	buf := bitvec.New(ix.NumDistinct())
	pats := ablationPatterns(ds.Cards())
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		p := pats[i%len(pats)]
		ix.MatchVector(p, buf) // attribute order, no window, no early exit
		sink += buf.DotCounts(ix.counts)
	}
	_ = sink
}

func BenchmarkProbeAblationLiteralScan(b *testing.B) {
	ds := datagen.AirBnB(100000, 13, 42)
	pats := ablationPatterns(ds.Cards())
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += ds.CountMatches(pats[i%len(pats)])
	}
	_ = sink
}
