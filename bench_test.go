// Benchmarks regenerating every figure of the paper's evaluation
// section at laptop scale (one benchmark per table/figure; the
// covbench command runs the same experiments at paper scale with
// printed series). Reported custom metrics:
//
//	MUPs        number of maximal uncovered patterns found
//	probes      coverage computations issued
//	targets     hitting-set input size (uncovered patterns at λ)
//	tuples      hitting-set output size (combinations to collect)
package coverage_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"coverage/internal/classify"
	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/enhance"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// benchN is the dataset size for the AirBnB-style sweeps: large enough
// to exercise the inverted indices, small enough that the full bench
// suite finishes in minutes.
const benchN = 100000

// datasets are cached per configuration so repeated benchmarks reuse
// the generation and indexing work.
var (
	cacheMu sync.Mutex
	ixCache = map[string]*index.Index{}
)

func airbnbIndex(b *testing.B, n, d int) *index.Index {
	b.Helper()
	key := fmt.Sprintf("airbnb/%d/%d", n, d)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ix, ok := ixCache[key]; ok {
		return ix
	}
	ix := index.Build(datagen.AirBnB(n, d, 42))
	ixCache[key] = ix
	return ix
}

func bluenileIndex(b *testing.B, n int) *index.Index {
	b.Helper()
	key := fmt.Sprintf("bluenile/%d", n)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ix, ok := ixCache[key]; ok {
		return ix
	}
	ix := index.Build(datagen.BlueNile(n, 42))
	ixCache[key] = ix
	return ix
}

type mupAlgo struct {
	name string
	run  func(index.Oracle, mup.Options) (*mup.Result, error)
}

var sweepAlgos = []mupAlgo{
	{"breaker", mup.PatternBreaker},
	{"combiner", mup.PatternCombiner},
	{"deepdiver", mup.DeepDiver},
}

func runMUPBench(b *testing.B, ix *index.Index, algo mupAlgo, opts mup.Options) {
	b.Helper()
	var res *mup.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = algo.run(ix, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.MUPs)), "MUPs")
	b.ReportMetric(float64(res.Stats.CoverageProbes), "probes")
}

// BenchmarkFig06MUPLevelDistribution regenerates Fig 6: the MUP level
// histogram on AirBnB-like data with n=1000, d=13, τ=50.
func BenchmarkFig06MUPLevelDistribution(b *testing.B) {
	ix := airbnbIndex(b, 1000, 13)
	var res *mup.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mup.DeepDiver(ix, mup.Options{Threshold: 50})
		if err != nil {
			b.Fatal(err)
		}
	}
	hist := res.LevelHistogram(13)
	peak := 0
	for _, h := range hist {
		if h > peak {
			peak = h
		}
	}
	b.ReportMetric(float64(len(res.MUPs)), "MUPs")
	b.ReportMetric(float64(peak), "peak-level-MUPs")
}

// BenchmarkFig11ClassifierEffect regenerates Fig 11's endpoints:
// decision-tree accuracy on the Hispanic-female test set with 0 vs 80
// HF rows in training.
func BenchmarkFig11ClassifierEffect(b *testing.B) {
	ds, labels := datagen.COMPAS(6889, 42)
	var hfIdx, restIdx []int
	for i := 0; i < ds.NumRows(); i++ {
		r := ds.Row(i)
		if r[datagen.CompasSex] == datagen.CompasFemale && r[datagen.CompasRace] == datagen.CompasHispanic {
			hfIdx = append(hfIdx, i)
		} else {
			restIdx = append(restIdx, i)
		}
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(hfIdx), func(i, j int) { hfIdx[i], hfIdx[j] = hfIdx[j], hfIdx[i] })
	testDS, testL := classify.Subset(ds, labels, hfIdx[:20])
	var acc0, acc80 float64
	for i := 0; i < b.N; i++ {
		for _, nHF := range []int{0, 80} {
			trainIdx := append(append([]int(nil), restIdx...), hfIdx[20:20+nHF]...)
			trainDS, trainL := classify.Subset(ds, labels, trainIdx)
			tree, err := classify.TrainTree(trainDS, trainL, classify.TreeOptions{MaxDepth: 8, MinSamplesSplit: 2})
			if err != nil {
				b.Fatal(err)
			}
			m, err := classify.Evaluate(tree.PredictAll(testDS), testL, tree.NumClasses())
			if err != nil {
				b.Fatal(err)
			}
			if nHF == 0 {
				acc0 = m.Accuracy
			} else {
				acc80 = m.Accuracy
			}
		}
	}
	b.ReportMetric(acc0, "HFacc-0")
	b.ReportMetric(acc80, "HFacc-80")
}

// BenchmarkFig12Threshold regenerates Fig 12: MUP identification on
// AirBnB-like data (d=15) across threshold rates, per algorithm
// (APRIORI included at the highest rate only; at low rates it is the
// paper's ">100s" outlier).
func BenchmarkFig12Threshold(b *testing.B) {
	// Laptop scale: d = 13 keeps every cell under a few seconds; the
	// covbench command runs the paper's d = 15, n = 1M sweep including
	// the extreme τ = 1 cell.
	ix := airbnbIndex(b, benchN, 13)
	for _, rate := range []float64{1e-4, 1e-3, 1e-2} {
		tau := int64(rate * benchN)
		if tau < 1 {
			tau = 1
		}
		opts := mup.Options{Threshold: tau}
		for _, algo := range sweepAlgos {
			b.Run(fmt.Sprintf("rate=%.0e/%s", rate, algo.name), func(b *testing.B) {
				runMUPBench(b, ix, algo, opts)
			})
		}
	}
	b.Run("rate=1e-02/apriori", func(b *testing.B) {
		runMUPBench(b, ix, mupAlgo{"apriori", mup.Apriori}, mup.Options{Threshold: int64(0.01 * benchN)})
	})
}

// BenchmarkFig13BlueNile regenerates Fig 13: MUP identification on the
// high-cardinality BlueNile-like catalog across threshold rates.
func BenchmarkFig13BlueNile(b *testing.B) {
	const n = 116300
	ix := bluenileIndex(b, n)
	for _, rate := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		tau := int64(rate * n)
		if tau < 1 {
			tau = 1
		}
		opts := mup.Options{Threshold: tau}
		for _, algo := range sweepAlgos {
			b.Run(fmt.Sprintf("rate=%.0e/%s", rate, algo.name), func(b *testing.B) {
				runMUPBench(b, ix, algo, opts)
			})
		}
	}
}

// BenchmarkFig14DataSize regenerates Fig 14: MUP identification across
// dataset sizes at fixed d=15, τ=0.1%.
func BenchmarkFig14DataSize(b *testing.B) {
	for _, n := range []int{10000, 30000, 100000} {
		ix := airbnbIndex(b, n, 13)
		tau := int64(0.001 * float64(n))
		if tau < 1 {
			tau = 1
		}
		opts := mup.Options{Threshold: tau}
		for _, algo := range sweepAlgos {
			b.Run(fmt.Sprintf("n=%d/%s", n, algo.name), func(b *testing.B) {
				runMUPBench(b, ix, algo, opts)
			})
		}
	}
}

// BenchmarkFig15Dimensions regenerates Fig 15: MUP identification
// across dimensions at fixed n, τ=0.1%.
func BenchmarkFig15Dimensions(b *testing.B) {
	for _, d := range []int{5, 7, 9, 11, 13} {
		ix := airbnbIndex(b, benchN, d)
		opts := mup.Options{Threshold: int64(0.001 * benchN)}
		for _, algo := range sweepAlgos {
			b.Run(fmt.Sprintf("d=%d/%s", d, algo.name), func(b *testing.B) {
				runMUPBench(b, ix, algo, opts)
			})
		}
	}
}

// BenchmarkFig16LevelBounded regenerates Fig 16: level-bounded
// DeepDiver across dimensions.
func BenchmarkFig16LevelBounded(b *testing.B) {
	for _, d := range []int{10, 20, 30} {
		ix := airbnbIndex(b, benchN, d)
		for _, l := range []int{2, 4} {
			if l == 4 && d > 20 {
				continue // tens of seconds per run; covbench covers it
			}
			b.Run(fmt.Sprintf("d=%d/maxlevel=%d", d, l), func(b *testing.B) {
				runMUPBench(b, ix, mupAlgo{"deepdiver", mup.DeepDiver},
					mup.Options{Threshold: int64(0.001 * benchN), MaxLevel: l})
			})
		}
	}
}

func runEnhanceBench(b *testing.B, ix *index.Index, lambda int, naive bool) {
	b.Helper()
	res, err := mup.DeepDiver(ix, mup.Options{Threshold: int64(0.001 * benchN), MaxLevel: lambda})
	if err != nil {
		b.Fatal(err)
	}
	cards := ix.Cards()
	var in, out int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		targets, err := enhance.UncoveredAtLevel(res.MUPs, cards, lambda)
		if err != nil {
			b.Fatal(err)
		}
		var plan *enhance.Plan
		if naive {
			plan, err = enhance.NaiveGreedy(targets, cards, nil)
		} else {
			plan, err = enhance.Greedy(targets, cards, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		in, out = len(targets), plan.NumTuples()
	}
	b.ReportMetric(float64(in), "targets")
	b.ReportMetric(float64(out), "tuples")
}

// BenchmarkFig17EnhanceThreshold regenerates Fig 17: greedy coverage
// enhancement across thresholds and λ on AirBnB-like data (d=13),
// with the naive baseline at λ=3 for the paper's comparison point.
func BenchmarkFig17EnhanceThreshold(b *testing.B) {
	ix := airbnbIndex(b, benchN, 13)
	for _, lambda := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("greedy/lambda=%d", lambda), func(b *testing.B) {
			runEnhanceBench(b, ix, lambda, false)
		})
	}
	b.Run("naive/lambda=3", func(b *testing.B) {
		runEnhanceBench(b, ix, 3, true)
	})
}

// BenchmarkFig18EnhanceDimensions regenerates Figs 18-19: greedy
// enhancement across dimensions (runtime plus input/output sizes, the
// latter reported as the targets/tuples metrics).
func BenchmarkFig18EnhanceDimensions(b *testing.B) {
	for _, d := range []int{5, 10, 15, 20} {
		ix := airbnbIndex(b, benchN, d)
		for _, lambda := range []int{3, 4} {
			if lambda > d {
				continue
			}
			b.Run(fmt.Sprintf("d=%d/lambda=%d", d, lambda), func(b *testing.B) {
				runEnhanceBench(b, ix, lambda, false)
			})
		}
	}
}

// BenchmarkCoverageProbe measures a single coverage computation
// against the inverted index (the innermost hot operation of every
// algorithm, Appendix A).
func BenchmarkCoverageProbe(b *testing.B) {
	ix := airbnbIndex(b, benchN, 15)
	pr := ix.NewProber()
	p := make([]uint8, 15)
	for i := range p {
		p[i] = 0xFF
	}
	p[3], p[7], p[11] = 1, 0, 1
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += pr.Coverage(p)
	}
	_ = sink
}

// BenchmarkIndexBuild measures oracle construction (dedup plus
// inverted-index build) for the default sweep configuration.
func BenchmarkIndexBuild(b *testing.B) {
	ds := datagen.AirBnB(benchN, 15, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(ds)
	}
}

// datasetRows returns the dataset's rows as a batch for engine
// appends.
func datasetRows(ds *dataset.Dataset) [][]uint8 {
	rows := make([][]uint8, ds.NumRows())
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	return rows
}

// BenchmarkEngineAppend measures incremental batch ingestion: sharded
// parallel counting merged into the delta, no base rebuild.
func BenchmarkEngineAppend(b *testing.B) {
	eng := engine.NewFromDataset(datagen.AirBnB(benchN, 13, 42), engine.Options{})
	batch := datasetRows(datagen.AirBnB(1000, 13, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "rows/op")
}

// BenchmarkEngineIncrementalMUPs compares the engine's append-then-
// repair path against the full rebuild it replaces: per iteration,
// ingest a 1000-row batch and re-answer the same MUP query.
func BenchmarkEngineIncrementalMUPs(b *testing.B) {
	const tau = int64(0.001 * benchN)
	batch := datasetRows(datagen.AirBnB(1000, 13, 7))
	b.Run("incremental-repair", func(b *testing.B) {
		eng := engine.NewFromDataset(datagen.AirBnB(benchN, 13, 42), engine.Options{})
		if _, err := eng.MUPs(mup.Options{Threshold: tau}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var res *mup.Result
		for i := 0; i < b.N; i++ {
			if err := eng.Append(batch); err != nil {
				b.Fatal(err)
			}
			r, err := eng.MUPs(mup.Options{Threshold: tau})
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(len(res.MUPs)), "MUPs")
	})
	b.Run("full-rebuild", func(b *testing.B) {
		full := datagen.AirBnB(benchN, 13, 42)
		b.ResetTimer()
		var res *mup.Result
		for i := 0; i < b.N; i++ {
			for _, row := range batch {
				full.MustAppend(row)
			}
			ix := index.Build(full)
			r, err := mup.ParallelPatternBreaker(ix, mup.ParallelOptions{Options: mup.Options{Threshold: tau}})
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(len(res.MUPs)), "MUPs")
	})
}

// BenchmarkEngineDelete measures signed batch retraction: parallel
// shard counting, atomic multiplicity validation, and the negative
// delta merge. The deleted rows are re-appended outside the timer so
// every iteration retracts from the same steady state.
func BenchmarkEngineDelete(b *testing.B) {
	full := datagen.AirBnB(benchN, 13, 42)
	eng := engine.NewFromDataset(full, engine.Options{})
	batch := make([][]uint8, 1000)
	for i := range batch {
		batch[i] = full.Row(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Delete(batch); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := eng.Append(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(len(batch)), "rows/op")
}

// BenchmarkEngineWindowAppend measures steady-state sliding-window
// ingest: every appended batch evicts an equally sized batch of the
// oldest rows through the tombstone-aware ring.
func BenchmarkEngineWindowAppend(b *testing.B) {
	eng := engine.NewFromDataset(datagen.AirBnB(benchN, 13, 42), engine.Options{})
	eng.SetWindow(benchN)
	batch := datasetRows(datagen.AirBnB(1000, 13, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "rows/op")
}

// BenchmarkEngineDeleteRepairMUPs compares the engine's delete-then-
// bidirectional-repair path against the from-scratch recomputation it
// replaces: per iteration, retract a batch and re-answer the same MUP
// query. Repair cost is one ancestor cube per distinct removed
// combination plus a linear pass over the cached MUPs, so both the
// small batch (the streaming steady state) and the bulk batch — 1% of
// all rows — must be measurably faster than full recomputation (past
// Options.FullSearchRemovedFraction the engine falls back to the full
// search on its own). The repair cell reports its allocations: a
// regression there has shown up as resident memory end to end before.
func BenchmarkEngineDeleteRepairMUPs(b *testing.B) {
	const tau = int64(0.001 * benchN)
	full := datagen.AirBnB(benchN, 13, 42)
	for _, batchRows := range []int{100, 1000} {
		batch := make([][]uint8, batchRows)
		for i := range batch {
			batch[i] = full.Row(i)
		}
		b.Run(fmt.Sprintf("batch=%d/bidirectional-repair", batchRows), func(b *testing.B) {
			// The cutoff is lifted so the repair path is measured even
			// for the bulk batch.
			eng := engine.NewFromDataset(full, engine.Options{FullSearchRemovedFraction: 1})
			if _, err := eng.MUPs(mup.Options{Threshold: tau}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *mup.Result
			for i := 0; i < b.N; i++ {
				if err := eng.Delete(batch); err != nil {
					b.Fatal(err)
				}
				r, err := eng.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					b.Fatal(err)
				}
				res = r
				// Restore the steady state and re-sync the cache outside
				// the timer so each iteration repairs a pure deletion.
				b.StopTimer()
				if err := eng.Append(batch); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.MUPs(mup.Options{Threshold: tau}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(res.MUPs)), "MUPs")
		})
		b.Run(fmt.Sprintf("batch=%d/full-rebuild", batchRows), func(b *testing.B) {
			counts := make(map[string]int64)
			dd := full.Distinct()
			for k, combo := range dd.Combos {
				counts[string(combo)] = dd.Counts[k]
			}
			b.ResetTimer()
			var res *mup.Result
			for i := 0; i < b.N; i++ {
				for _, row := range batch {
					counts[string(row)]--
				}
				ix := index.BuildFromCounts(full.Schema(), counts)
				r, err := mup.ParallelPatternBreaker(ix, mup.ParallelOptions{Options: mup.Options{Threshold: tau}})
				if err != nil {
					b.Fatal(err)
				}
				res = r
				b.StopTimer()
				for _, row := range batch {
					counts[string(row)]++
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(res.MUPs)), "MUPs")
		})
	}
}

// TestDeleteRepairAllocCeiling bounds the garbage of the repair a
// small retraction triggers — Engine.Delete of 100 rows, then MUPs —
// on a 20 000 × 13 AirBnB-shaped table at τ = 100 (7 213 MUPs). The
// level-synchronous descent this path used to run over the
// removal-touched sub-lattice allocated 83.6 MB in 120.7 k objects and
// issued 185 293 oracle probes per repair (245–303 ms); the ancestor
// cube allocates 4.1 MB in 15.0 k objects and issues none (15–21 ms).
// The ceiling is a fifth of the former.
func TestDeleteRepairAllocCeiling(t *testing.T) {
	const ceiling = 83_600_000 / 5
	full := datagen.AirBnB(20000, 13, 42)
	eng := engine.NewFromDataset(full, engine.Options{})
	opts := mup.Options{Threshold: 100}
	if _, err := eng.MUPs(opts); err != nil {
		t.Fatal(err)
	}
	batch := make([][]uint8, 100)
	for i := range batch {
		batch[i] = full.Row(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.Delete(batch); err != nil {
		t.Fatal(err)
	}
	res, err := eng.MUPs(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != "bidirectional-repair" || res.Stats.CoverageProbes != 0 {
		t.Errorf("delete repair ran %q with %d oracle probes, want bidirectional-repair with none", res.Stats.Algorithm, res.Stats.CoverageProbes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("delete + repair allocated %d bytes, ceiling %d", got, ceiling)
	}
	if err := mup.VerifyResult(eng.Oracle(), opts.Threshold, res); err != nil {
		t.Error(err)
	}
}

// BenchmarkEngineConcurrentCoverage measures point coverage probes
// under GOMAXPROCS-way concurrency with a non-empty delta, the
// covserve serving hot path (pooled probers + merge-on-read).
func BenchmarkEngineConcurrentCoverage(b *testing.B) {
	eng := engine.NewFromDataset(datagen.AirBnB(benchN, 15, 42), engine.Options{})
	if err := eng.Append(datasetRows(datagen.AirBnB(500, 15, 9))); err != nil {
		b.Fatal(err)
	}
	probe := pattern.All(15)
	probe[3], probe[7], probe[11] = 1, 0, 1
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := probe.Clone()
		var sink int64
		for pb.Next() {
			c, err := eng.Coverage(p)
			if err != nil {
				b.Error(err)
				return
			}
			sink += c
		}
		_ = sink
	})
}

// BenchmarkDistinct measures dataset deduplication alone.
func BenchmarkDistinct(b *testing.B) {
	ds := datagen.AirBnB(benchN, 15, 42)
	b.ResetTimer()
	var dd *dataset.Distinct
	for i := 0; i < b.N; i++ {
		dd = ds.Distinct()
	}
	b.ReportMetric(float64(dd.NumDistinct()), "distinct")
}
