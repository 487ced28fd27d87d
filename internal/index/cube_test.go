package index

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// FuzzAncestorCube checks the contract mup.RepairBidirectional builds
// on: the match histogram of a combination, summed over the partitions
// of a dataset and turned into superset sums, is the coverage of every
// one of the combination's 2^d ancestors — whether or not the
// combination itself occurs in the data.
func FuzzAncestorCube(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(40))
	f.Add(int64(7), uint8(8), uint16(300))
	f.Add(int64(42), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, rows uint16) {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + int(dim)%8
		attrs := make([]dataset.Attribute, d)
		for j := range attrs {
			vals := make([]string, 2+rng.Intn(5))
			for v := range vals {
				vals[v] = fmt.Sprint(v)
			}
			attrs[j] = dataset.Attribute{Name: fmt.Sprintf("a%d", j), Values: vals}
		}
		schema := dataset.MustSchema(attrs)
		cards := schema.Cards()
		draw := func() []uint8 {
			c := make([]uint8, d)
			for j, card := range cards {
				// The product of two draws skews towards value 0, so combinations repeat.
				c[j] = uint8(rng.Float64() * rng.Float64() * float64(card))
			}
			return c
		}
		whole := make(map[string]int64)
		parts := [3]map[string]int64{{}, {}, {}}
		for i := 0; i < int(rows)%512; i++ {
			c := string(draw())
			whole[c]++
			parts[int(c[0]+c[d-1])%3][c]++ // any function of the combination keeps the partitions disjoint
		}
		combo := draw()
		if rng.Intn(2) == 0 {
			for j, card := range cards { // uniform: usually absent from the data
				combo[j] = uint8(rng.Intn(card))
			}
		}

		ref := BuildFromCounts(schema, whole)
		sharded := make([]*Index, len(parts))
		for i, counts := range parts {
			sharded[i] = BuildFromCounts(schema, counts)
		}
		for _, shards := range [][]*Index{{ref}, sharded} {
			cube := make([]int64, 1<<d)
			for _, ix := range shards {
				ix.MatchHistogram(combo, cube)
			}
			for bit := 1; bit < len(cube); bit <<= 1 {
				for s := range cube {
					if s&bit == 0 {
						cube[s] += cube[s|bit]
					}
				}
			}
			pr := ref.NewProber()
			p := make(pattern.Pattern, d)
			for s, got := range cube {
				for j := range p {
					p[j] = pattern.Wildcard
					if s>>j&1 != 0 {
						p[j] = combo[j]
					}
				}
				if want := pr.Coverage(p); got != want {
					t.Fatalf("%d shard(s), combination %v: cube cell %0*b = %d, cov(%v) = %d", len(shards), combo, d, s, got, p, want)
				}
			}
		}
	})
}
