package mup

import (
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/index"
)

// airbnbIndex is the benchmarks' workload: 100 000 AirBnB-shaped rows
// over 13 binary attributes.
func airbnbIndex(b *testing.B) *index.Index {
	b.Helper()
	return index.Build(datagen.AirBnB(100000, 13, 42))
}

// Ablation: the parallel level-synchronous PATTERN-BREAKER versus the
// sequential one on the same workload.

func BenchmarkParallelBreakerWorkers1(b *testing.B) {
	benchParallelBreaker(b, 1)
}

func BenchmarkParallelBreakerWorkersAll(b *testing.B) {
	benchParallelBreaker(b, 0)
}

func benchParallelBreaker(b *testing.B, workers int) {
	ix := airbnbIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParallelPatternBreaker(ix, ParallelOptions{
			Options: Options{Threshold: 100},
			Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
