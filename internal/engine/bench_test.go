package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// benchCards is a 13-attribute schema in the AirBnB shape the paper's
// sweeps use — wide enough that the packed representation carries real
// weight (13 fields, still well under 128 bits).
var benchCards = []int{8, 6, 5, 4, 7, 3, 5, 6, 4, 3, 5, 4, 6}

// BenchmarkEngineAppend measures the live write path — one-record
// runs, counted per core and applied under the write lock — over a
// 20 000-row engine at 1, 2 and 4 shard cores. batch=100 is the size a
// WAL record usually carries, under inlineBatchRows: it runs on the
// calling goroutine at any processor count. batch=4096 is the
// service's NDJSON bulk-load chunk, counted on every worker. The
// op=append+delete cells append the batch and delete it again, so
// every iteration also prices the commit's overdraw check. Run with
// -cpu 1,4 to price the fan-out apart from the counting.
func BenchmarkEngineAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seed := randomRows(rng, benchCards, 20000)
	for _, rows := range []int{100, 4096} {
		batch := randomRows(rng, benchCards, rows)
		for _, shards := range []int{1, 2, 4} {
			for _, del := range []bool{false, true} {
				op := "append"
				if del {
					op = "append+delete"
				}
				b.Run(fmt.Sprintf("batch=%d/shards=%d/op=%s", rows, shards, op), func(b *testing.B) {
					e := NewSharded(testSchema(b, benchCards), shards, Options{})
					if err := e.Append(seed); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := e.Append(batch); err != nil {
							b.Fatal(err)
						}
						if !del {
							continue
						}
						if err := e.Delete(batch); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkEngineMUPSearch measures the full level-synchronous MUP
// search against the folded per-shard bases — the path a first query
// at a fresh threshold takes, and the one the merged per-level batch
// probes accelerate. Run with -cpu 1,4 alongside BenchmarkEngineAppend.
func BenchmarkEngineMUPSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seed := randomRows(rng, benchCards, 20000)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := NewSharded(testSchema(b, benchCards), shards, Options{})
			if err := e.Append(seed); err != nil {
				b.Fatal(err)
			}
			oracle := e.Oracle()
			// τ at 2.5% of the rows with a level bound keeps the MUP
			// frontier in the upper lattice — a benchable descent that
			// still crosses tens of thousands of candidates.
			opts := mup.Options{Threshold: 500, MaxLevel: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mup.ParallelPatternBreaker(oracle, mup.ParallelOptions{Options: opts}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCoverageBatch measures one /coverage batch in process
// at the shapes of the benchmark's probe workload: 100 000 rows per
// tenant on 2 shard cores, a pending delta of the ≤ 400 combinations
// four 100-row batches appended and deleted again leave behind, and
// batches of 64 patterns. The mixed cell draws each pattern's level
// from 1–6 and times one batch per iteration, cycling through 16 of
// them; L1–L6 fix every pattern's level and report ns per pattern, so
// the marginal table's levels (1–3) and the kernel's (above) read
// apart. The first batch, which builds the bases' marginal tables,
// runs before the timer starts.
func BenchmarkEngineCoverageBatch(b *testing.B) {
	const rows, batchRows, batches = 100000, 100, 4
	tenants := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"airbnb13", datagen.AirBnB(rows+batches*batchRows, 13, 42)},
		{"bluenile7", datagen.BlueNile(rows+batches*batchRows, 42)},
		{"zipf10", datagen.Zipf(rows+batches*batchRows, []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 1.2, 42)},
	}
	for _, tn := range tenants {
		b.Run(tn.name, func(b *testing.B) {
			all := make([][]uint8, tn.ds.NumRows())
			for i := range all {
				all[i] = tn.ds.Row(i)
			}
			e := NewSharded(tn.ds.Schema(), 2, Options{})
			if err := e.Append(all[:rows]); err != nil {
				b.Fatal(err)
			}
			e.Oracle() // fold the bulk load into the bases
			for lo := rows; lo < len(all); lo += batchRows {
				batch := all[lo : lo+batchRows]
				if err := e.Append(batch); err != nil {
					b.Fatal(err)
				}
				if err := e.Delete(batch); err != nil {
					b.Fatal(err)
				}
			}
			if d := e.Stats().DeltaDistinct; d == 0 || d > batches*batchRows {
				b.Fatalf("pending delta holds %d combinations, want 1–%d", d, batches*batchRows)
			}
			cards := tn.ds.Cards()
			// requests draws 16 batches of 64 patterns, each fixing
			// level(rng) attributes at random values.
			requests := func(level func(*rand.Rand) int) [][]pattern.Pattern {
				rng := rand.New(rand.NewSource(7))
				reqs := make([][]pattern.Pattern, 16)
				for i := range reqs {
					reqs[i] = make([]pattern.Pattern, 64)
					for j := range reqs[i] {
						p := pattern.All(len(cards))
						for _, a := range rng.Perm(len(cards))[:level(rng)] {
							p[a] = uint8(rng.Intn(cards[a]))
						}
						reqs[i][j] = p
					}
				}
				return reqs
			}
			run := func(b *testing.B, reqs [][]pattern.Pattern) {
				if _, err := e.CoverageBatch(reqs[0]); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.CoverageBatch(reqs[i%len(reqs)]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.Run("mixed", func(b *testing.B) {
				run(b, requests(func(rng *rand.Rand) int { return 1 + rng.Intn(min(6, len(cards))) }))
			})
			for level := 1; level <= min(6, len(cards)); level++ {
				b.Run(fmt.Sprintf("L%d", level), func(b *testing.B) {
					reqs := requests(func(*rand.Rand) int { return level })
					run(b, reqs)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs[0])), "ns/pattern")
				})
			}
		})
	}
}

// BenchmarkShardRebuild prices one base rebuild at the shape of the
// benchmark's refresh workload: 100 000 AirBnB rows over 13 attributes
// on one shard core. Every compaction and the fold before every stale
// MUP query pays one such rebuild per core, under the write lock.
func BenchmarkShardRebuild(b *testing.B) {
	ds := datagen.AirBnB(100000, 13, 20190408)
	e := NewFromDataset(ds, Options{Shards: 1})
	c := e.cores[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.rebuild()
	}
	b.ReportMetric(float64(c.counts.Len()), "combos")
}
