package mup

import (
	"runtime"
	"sync"

	"coverage/internal/index"
	"coverage/internal/pattern"
)

// ParallelOptions extends Options with a worker count for the
// multi-core variants (the parallel breaker and the repair passes).
type ParallelOptions struct {
	Options
	// Workers is the number of goroutines; 0 means GOMAXPROCS.
	Workers int
}

func (p ParallelOptions) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runChunks splits items into one contiguous chunk per worker and runs
// fn(worker, chunk, lo) concurrently — the level-chunking idiom shared
// by the parallel breaker, the repair waves and the engine's append
// sharding. With a single worker (or a single item) fn runs inline,
// keeping sequential callers goroutine-free.
func runChunks[T any](items []T, workers int, fn func(w int, part []T, lo int)) {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		if len(items) > 0 {
			fn(0, items, 0)
		}
		return
	}
	chunk := (len(items) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(items) {
			break
		}
		hi := min(lo+chunk, len(items))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, items[lo:hi], lo)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ParallelPatternBreaker is a multi-core PATTERN-BREAKER. The
// traversal is level-synchronous, which makes it embarrassingly
// parallel within a level: each candidate's parent check and coverage
// probe are independent given the previous level's covered set, and
// every worker owns a private prober (the coverage oracle itself is
// immutable). The output is identical to PatternBreaker.
func ParallelPatternBreaker(ix index.Oracle, popts ParallelOptions) (*Result, error) {
	opts := popts.Options
	workers := popts.workers()
	cards := ix.Cards()
	key := pattern.NewCodec(cards).PackedKey
	d := len(cards)
	res := &Result{Stats: Stats{Algorithm: "parallel-pattern-breaker"}, Cov: []int64{}}
	bound := opts.levelBound(d)

	queue := []pattern.Pattern{pattern.All(d)}
	covered := make(map[pattern.PackedKey]struct{})

	// Per-worker state, merged after each level.
	type shard struct {
		mups    []pattern.Pattern
		covs    []int64
		covered []pattern.PackedKey
		next    []pattern.Pattern
		nodes   int64
	}
	probers := make([]index.CoverageProber, workers)
	for w := range probers {
		probers[w] = ix.NewCoverageProber()
	}
	// Per-worker scratch for the level's surviving candidates and their
	// batched coverage answers, reused across levels.
	liveBufs := make([][]pattern.Pattern, workers)
	covBufs := make([][]int64, workers)

	for level := 0; level <= bound && len(queue) > 0; level++ {
		shards := make([]shard, workers)
		runChunks(queue, workers, func(w int, part []pattern.Pattern, _ int) {
			sh := &shards[w]
			pr := probers[w]
			// Pass 1: parent checks, no probes.
			live := liveBufs[w][:0]
			for _, p := range part {
				sh.nodes++
				allParentsCovered := true
				for i, v := range p {
					if v == pattern.Wildcard {
						continue
					}
					p[i] = pattern.Wildcard
					_, ok := covered[key(p)]
					p[i] = v
					if !ok {
						allParentsCovered = false
						break
					}
				}
				if allParentsCovered {
					live = append(live, p)
				}
			}
			// One merged probe for the worker's whole slice of the
			// level — a batching prober (the sharded fan-out) walks its
			// partitions shard-major over the candidates.
			covs := covBufs[w]
			if cap(covs) < len(live) {
				covs = make([]int64, len(live))
			}
			covs = covs[:len(live)]
			index.CoverageAll(pr, live, covs)
			// Pass 2: classify.
			for i, p := range live {
				if c := covs[i]; c < opts.Threshold {
					sh.mups = append(sh.mups, p)
					sh.covs = append(sh.covs, c)
					continue
				}
				sh.covered = append(sh.covered, key(p))
				if level < bound {
					sh.next = p.AppendRule1Children(sh.next, cards)
				}
			}
			liveBufs[w], covBufs[w] = live, covs
		})

		coveredNow := make(map[pattern.PackedKey]struct{})
		var next []pattern.Pattern
		for w := range shards {
			sh := &shards[w]
			res.MUPs = append(res.MUPs, sh.mups...)
			res.Cov = append(res.Cov, sh.covs...)
			for _, k := range sh.covered {
				coveredNow[k] = struct{}{}
			}
			next = append(next, sh.next...)
			res.Stats.NodesVisited += sh.nodes
		}
		covered = coveredNow
		queue = next
	}
	for _, pr := range probers {
		res.Stats.CoverageProbes += pr.Probes()
	}
	sortResult(res)
	return res, nil
}
