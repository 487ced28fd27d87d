package mup

import (
	"runtime"
	"sync"

	"coverage/internal/countstore"
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

// PatternBreaker implements the top-down algorithm of §III-C
// (Algorithm 1): ParallelPatternBreaker on one worker. It walks the
// pattern graph level by level from the all-wildcard root, generating
// each candidate exactly once through Rule 1, probing coverage only for
// candidates all of whose parents are covered, and never descending
// below an uncovered pattern.
//
// PatternBreaker is fastest when the MUPs sit high in the graph
// (large thresholds); its cost is proportional to the covered region
// it must cross.
func PatternBreaker(ix index.Oracle, opts Options) (*Result, error) {
	res, err := ParallelPatternBreaker(ix, ParallelOptions{Options: opts, Workers: 1})
	if err != nil {
		return nil, err
	}
	res.Stats.Algorithm = "pattern-breaker"
	return res, nil
}

// ParallelPatternBreaker is a multi-core PATTERN-BREAKER. The
// traversal is level-synchronous, which makes it embarrassingly
// parallel within a level: each candidate's parent check and coverage
// probe are independent given the previous level's covered set, and
// every worker owns a private prober (the coverage oracle itself is
// immutable). The output does not depend on the worker count.
//
// A level's candidates are the Rule-1 children of the previous level's
// covered patterns, enumerated from each covered pattern and its packed
// key (pattern.NewKeyCodec). A child's key is its parent's with one
// field set, and each of its other parents' keys is its own with one
// field set to the wildcard (pattern.Codec.SetField), so no candidate
// is packed and only the live ones are built as patterns. The parent
// that generated a child is covered by construction and not looked up.
// Probes only ask whether coverage reaches τ; a MUP is below τ, so its
// coverage is exact.
func ParallelPatternBreaker(ix index.Oracle, popts ParallelOptions) (*Result, error) {
	opts := popts.Options
	workers := popts.workers()
	cards := ix.Cards()
	codec := pattern.NewKeyCodec(cards)
	d := len(cards)
	res := &Result{Stats: Stats{Algorithm: "parallel-pattern-breaker"}, Cov: []int64{}}
	bound := opts.levelBound(d)

	probers := make([]index.CoverageProber, workers)
	for w := range probers {
		probers[w] = ix.NewCoverageProber()
	}
	root := []pattern.Pattern{pattern.All(d)}
	rootCov := []int64{0}
	index.CoverageAll(probers[0], root, opts.Threshold, rootCov)
	res.Stats.NodesVisited = 1
	// frontier holds the previous level's covered patterns, in Rule-1
	// order, and keys their packed keys. A candidate is live only if
	// every parent is covered: candidates are generated exclusively by
	// covered Rule-1 parents, and all covered patterns of a level are
	// guaranteed to have been generated (every ancestor of a covered
	// pattern is covered), so membership in covered, the set of the
	// frontier's keys, is exactly "parent covered".
	var frontier []pattern.Pattern
	var keys []pattern.PackedKey
	if rootCov[0] < opts.Threshold {
		res.MUPs, res.Cov = root, rootCov
	} else {
		frontier, keys = root, []pattern.PackedKey{codec.PackedKey(root[0])}
	}
	covered := countstore.NewProbe(0)

	// Per-worker state, merged after each level.
	type shard struct {
		mups     []pattern.Pattern
		covs     []int64
		next     []pattern.Pattern
		nextKeys []pattern.PackedKey
		nodes    int64
	}
	// Per-worker scratch for the level's live candidates, their keys and
	// their batched coverage answers, reused across levels, and the
	// arena the live candidates are built in.
	liveBufs := make([][]pattern.Pattern, workers)
	keyBufs := make([][]pattern.PackedKey, workers)
	covBufs := make([][]int64, workers)
	arenas := make([][]uint8, workers)

	for level := 1; level <= bound && len(frontier) > 0; level++ {
		shards := make([]shard, workers)
		runChunks(frontier, workers, func(w int, part []pattern.Pattern, lo int) {
			sh := &shards[w]
			// Pass 1: parent checks, no probes. A candidate with an
			// uncovered parent is dominated by an uncovered pattern: it
			// is uncovered but not maximal, and its subtree holds no
			// MUPs either.
			live, liveKeys, arena := liveBufs[w][:0], keyBufs[w][:0], arenas[w]
			for n, p := range part {
				last := p.RightmostDeterministic()
				for j := last + 1; j < d; j++ {
					for v := range cards[j] {
						sh.nodes++
						k := codec.SetField(keys[lo+n], j, uint8(v))
						if !parentsCovered(codec, covered, p[:last+1], k) {
							continue
						}
						if cap(arena)-len(arena) < d {
							arena = make([]uint8, 0, max(d, 1<<14))
						}
						c := arena[len(arena) : len(arena)+d : len(arena)+d]
						arena = arena[:len(arena)+d]
						copy(c, p)
						c[j] = uint8(v)
						live, liveKeys = append(live, c), append(liveKeys, k)
					}
				}
			}
			// One merged probe for the worker's whole slice of the
			// level — a batching prober (the sharded fan-out) walks its
			// partitions shard-major over the candidates, and shares
			// each prefix common to consecutive candidates.
			covs := covBufs[w]
			if cap(covs) < len(live) {
				covs = make([]int64, len(live))
			}
			covs = covs[:len(live)]
			index.CoverageAll(probers[w], live, opts.Threshold, covs)
			// Pass 2: classify.
			for i, c := range live {
				if cov := covs[i]; cov < opts.Threshold {
					sh.mups = append(sh.mups, c)
					sh.covs = append(sh.covs, cov)
				} else if level < bound {
					sh.next = append(sh.next, c)
					sh.nextKeys = append(sh.nextKeys, liveKeys[i])
				}
			}
			liveBufs[w], keyBufs[w], covBufs[w], arenas[w] = live, liveKeys, covs, arena
		})

		n := 0
		for w := range shards {
			n += len(shards[w].next)
		}
		frontier, keys = make([]pattern.Pattern, 0, n), make([]pattern.PackedKey, 0, n)
		for w := range shards {
			sh := &shards[w]
			res.MUPs = append(res.MUPs, sh.mups...)
			res.Cov = append(res.Cov, sh.covs...)
			frontier = append(frontier, sh.next...)
			keys = append(keys, sh.nextKeys...)
			res.Stats.NodesVisited += sh.nodes
		}
		covered = countstore.NewProbe(len(keys))
		for _, k := range keys {
			covered.Set(k, 1)
		}
	}
	for _, pr := range probers {
		res.Stats.CoverageProbes += pr.Probes()
	}
	sortResult(res)
	return res, nil
}

// parentsCovered reports whether the child with key k of a covered
// pattern, whose deterministic elements all lie in prefix, has every
// other parent in covered: the child with one of those elements
// wildcarded.
func parentsCovered(codec *pattern.Codec, covered *countstore.Probe, prefix pattern.Pattern, k pattern.PackedKey) bool {
	for i, v := range prefix {
		if v != pattern.Wildcard && covered.Get(codec.SetField(k, i, pattern.Wildcard)) == 0 {
			return false
		}
	}
	return true
}
