package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/mup"
)

// benchCards is a 13-attribute schema in the AirBnB shape the paper's
// sweeps use — wide enough that the packed representation carries real
// weight (13 fields, still well under 128 bits).
var benchCards = []int{8, 6, 5, 4, 7, 3, 5, 6, 4, 3, 5, 4, 6}

// BenchmarkEngineAppend measures the batch ingest hot path — count,
// shard-local route, fan-out apply — at 1 and 4 shard cores. Run with
// -cpu 1,4: with one processor the sharded cells price the routing
// overhead alone; with four they measure the parallel win the packed
// keys and the contiguous per-core slices exist to unlock. batch=100 is
// the size a WAL record usually carries, under inlineBatchRows: it runs
// on the calling goroutine, so its sharded cells price routing alone at
// any processor count.
func BenchmarkEngineAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seed := randomRows(rng, benchCards, 20000)
	for _, rows := range []int{100, 1000} {
		batch := randomRows(rng, benchCards, rows)
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("batch=%d/shards=%d", rows, shards), func(b *testing.B) {
				e := NewSharded(testSchema(b, benchCards), shards, Options{})
				if err := e.Append(seed); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.Append(batch); err != nil {
						b.Fatal(err)
					}
				}
			})
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
