package mup

import (
	"fmt"

	"coverage/internal/index"
	"coverage/internal/mupindex"
	"coverage/internal/pattern"
)

// Delta is one distinct value combination whose multiplicity changed
// since a cached MUP result was computed, with the net signed change:
// Count > 0 means net rows added, Count < 0 net rows removed, and
// Count == 0 means the fact of the mutation is known but its magnitude
// is not (repairs then fall back from delta-updating coverage values
// to probing, while still confining probes to the mutated cone).
type Delta struct {
	Combo pattern.Pattern
	Count int64
}

func stringKey(p pattern.Pattern) string { return string(p) }

// deltaSet is a prepared mini coverage oracle over one direction's
// mutation deltas: membership tests ("could cov(P) have changed this
// way?") and, when every magnitude is known, the exact per-pattern
// coverage delta. It reuses the inverted-index machinery, so each test
// is a probe against a tiny oracle instead of a scan; the pool makes
// it safe for the repair workers to share.
type deltaSet struct {
	pool *index.Pool // nil when the set is empty
	// known is false when the set itself is unknown (nil input with
	// nilMeansUnknown): touched() must then assume everything.
	known bool
	// exact is true when the set is known and every Count is non-zero,
	// so delta() returns the exact magnitude sum.
	exact bool
}

// prepDeltas validates and indexes one direction's deltas. role
// prefixes error messages; nilMeansUnknown selects whether a nil slice
// means "no mutations" (removed) or "unknown" (added).
func prepDeltas(ix index.Oracle, deltas []Delta, role string, nilMeansUnknown bool) (*deltaSet, error) {
	s := &deltaSet{known: deltas != nil || !nilMeansUnknown, exact: true}
	if !s.known {
		s.exact = false
		return s, nil
	}
	if len(deltas) == 0 {
		return s, nil
	}
	cards := ix.Cards()
	counts := make(map[string]int64, len(deltas))
	for _, d := range deltas {
		if err := d.Combo.Validate(cards); err != nil {
			return nil, fmt.Errorf("mup: %s seed %v: %w", role, d.Combo, err)
		}
		if !d.Combo.IsFull() {
			return nil, fmt.Errorf("mup: %s seed %v is not a full value combination", role, d.Combo)
		}
		mag := d.Count
		if mag < 0 {
			mag = -mag
		}
		if mag == 0 {
			// Unknown magnitude: keep the combination for membership
			// (weight 1 > 0) but the magnitude sums are now unusable.
			s.exact = false
			mag = 1
		}
		counts[d.Combo.Key()] += mag
	}
	mini := index.BuildFromCounts(ix.Schema(), counts)
	s.pool = mini.NewPool()
	return s, nil
}

// touched reports whether any of the set's combinations matches p —
// i.e. whether cov(p) could have changed in this direction. An unknown
// set touches everything.
func (s *deltaSet) touched(p pattern.Pattern) bool {
	if !s.known {
		return true
	}
	return s.pool != nil && s.pool.Coverage(p) > 0
}

// delta returns the summed magnitude of the set's combinations
// matching p. Only meaningful when exact.
func (s *deltaSet) delta(p pattern.Pattern) int64 {
	if s.pool == nil {
		return 0
	}
	return s.pool.Coverage(p)
}

// repairNode is one pattern in a repair wave; seed is its index into
// the old MUP set, or -1 for nodes discovered by expansion.
type repairNode struct {
	p    pattern.Pattern
	seed int
}

// emitBuf collects one worker's emitted MUPs with their coverage
// values; covValid goes false when a value could not be determined.
type emitBuf struct {
	mups     []pattern.Pattern
	covs     []int64
	covValid bool
}

func (b *emitBuf) emit(p pattern.Pattern, c int64, known bool) {
	if !known {
		b.covValid = false
		c = 0
	}
	b.mups = append(b.mups, p.Clone())
	b.covs = append(b.covs, c)
}

// Repair updates a previously computed MUP result after rows have
// been appended to the oracle's dataset. It exploits the monotonicity
// of coverage under insertion: appends only increase cov(P), so the
// uncovered region of the lattice can only shrink, and every new MUP
// is a descendant (or survivor) of an old MUP. Instead of re-running a
// full search, Repair revisits each old MUP and re-expands only the
// subtrees of those that became covered, walking downward until the
// new maximal frontier is found.
//
// added, when non-nil, must list every distinct value combination
// whose multiplicity increased since old was computed, with the net
// increase in Count (0 = magnitude unknown); nil means the added set
// is unknown. With a known added set, an old MUP matched by no added
// combination is still a MUP without any probe; with exact counts and
// old.Cov present, even the touched MUPs are delta-updated
// (cov' = cov + Σ added matching) instead of re-probed, so the oracle
// is probed only under MUPs that actually became covered.
//
// old must be the complete MUP result of the same dataset at an
// earlier (smaller or equal) state under the same Options; ix must
// reflect the current state. The repair waves are level-chunked across
// popts.Workers goroutines (the ParallelPatternBreaker pool pattern).
// The result is identical to a from-scratch search.
func Repair(ix index.Oracle, old *Result, added []Delta, popts ParallelOptions) (*Result, error) {
	codec := pattern.NewCodec(ix.Cards())
	if codec.Packable() {
		return repairKeyed(ix, old, added, popts, codec.PackedKey)
	}
	return repairKeyed(ix, old, added, popts, stringKey)
}

func repairKeyed[K comparable](ix index.Oracle, old *Result, added []Delta, popts ParallelOptions, key func(pattern.Pattern) K) (*Result, error) {
	opts := popts.Options
	cards := ix.Cards()
	res := &Result{Stats: Stats{Algorithm: "incremental-repair"}}
	bound := opts.levelBound(len(cards))
	workers := popts.workers()

	add, err := prepDeltas(ix, added, "repair added", true)
	if err != nil {
		return nil, err
	}
	oldCov := old.Cov
	if oldCov != nil && len(oldCov) != len(old.MUPs) {
		oldCov = nil
	}
	// exact: a touched seed's coverage is old value + added matches.
	exact := oldCov != nil && add.known && add.exact

	visited := make(map[K]bool, len(old.MUPs))
	wave := make([]repairNode, 0, len(old.MUPs))
	for i, p := range old.MUPs {
		if err := p.Validate(cards); err != nil {
			return nil, fmt.Errorf("mup: repair seed %v: %w", p, err)
		}
		if k := key(p); !visited[k] {
			visited[k] = true
			wave = append(wave, repairNode{p: p, seed: i})
		}
	}

	probers := make([]index.CoverageProber, workers)
	for w := range probers {
		probers[w] = ix.NewCoverageProber()
	}
	// cov memoizes probes across waves: maximality checks revisit
	// parents shared across many candidates. Workers read the merged
	// map of previous waves and record fresh probes privately; the
	// private maps are merged between waves.
	covGlobal := make(map[K]int64)

	type waveOut struct {
		emitBuf
		probed   map[K]int64
		children []pattern.Pattern
		nodes    int64
	}

	covValid := true
	for len(wave) > 0 {
		outs := make([]waveOut, workers)
		for i := range outs {
			outs[i].covValid = true
		}
		runChunks(wave, workers, func(w int, part []repairNode, _ int) {
			out := &outs[w]
			out.probed = make(map[K]int64)
			pr := probers[w]
			coverage := func(p pattern.Pattern) int64 {
				k := key(p)
				if c, ok := covGlobal[k]; ok {
					return c
				}
				if c, ok := out.probed[k]; ok {
					return c
				}
				c := pr.Coverage(p)
				out.probed[k] = c
				return c
			}
			for _, n := range part {
				p := n.p
				out.nodes++
				lvl := p.Level()
				if lvl > bound {
					continue
				}
				if n.seed >= 0 {
					// An old MUP untouched by the added set is still
					// uncovered and still maximal (its parents were
					// covered and coverage only grew): no probe.
					if add.known && !add.touched(p) {
						if oldCov != nil {
							out.emit(p, oldCov[n.seed], true)
						} else {
							out.emit(p, 0, false)
						}
						continue
					}
					var c int64
					if exact {
						c = oldCov[n.seed] + add.delta(p)
					} else {
						c = coverage(p)
					}
					if c < opts.Threshold {
						// Still uncovered: still maximal, as above.
						out.emit(p, c, true)
						continue
					}
				} else {
					c := coverage(p)
					if c < opts.Threshold {
						maximal := true
						for j, v := range p {
							if v == pattern.Wildcard {
								continue
							}
							p[j] = pattern.Wildcard
							parUnc := coverage(p) < opts.Threshold
							p[j] = v
							if parUnc {
								maximal = false
								break
							}
						}
						if maximal {
							out.emit(p, c, true)
						}
						continue
					}
				}
				// p is covered: any new MUP it dominated sits strictly
				// below it. Rule 1 cannot generate these candidates
				// (seeds sit mid-lattice with arbitrary deterministic
				// positions), so expand all children and deduplicate
				// through visited at the merge.
				if lvl >= bound {
					continue
				}
				out.children = append(out.children, p.Children(cards)...)
			}
		})

		var next []repairNode
		for w := range outs {
			out := &outs[w]
			res.MUPs = append(res.MUPs, out.mups...)
			res.Cov = append(res.Cov, out.covs...)
			covValid = covValid && out.covValid
			res.Stats.NodesVisited += out.nodes
			for k, c := range out.probed {
				covGlobal[k] = c
			}
			for _, c := range out.children {
				if k := key(c); !visited[k] {
					visited[k] = true
					next = append(next, repairNode{p: c, seed: -1})
				}
			}
		}
		wave = next
	}

	if !covValid {
		res.Cov = nil
	} else if res.Cov == nil {
		res.Cov = []int64{}
	}
	for _, pr := range probers {
		res.Stats.CoverageProbes += pr.Probes()
	}
	sortResult(res)
	return res, nil
}

// RepairBidirectional updates a previously computed MUP result after
// the oracle's dataset has been mutated in both directions: rows
// appended and rows deleted. Deletions break the monotonicity Repair
// relies on — coverage can drop, so previously covered patterns may
// become uncovered and previously maximal patterns may stop being
// maximal (an ancestor fell below τ). The uncovered region can
// therefore grow upward as well as shrink downward.
//
// removed must contain every distinct value combination whose
// multiplicity decreased since old was computed (nil means none);
// added, when non-nil, every one whose multiplicity increased (nil
// means unknown). Counts carry the net change. A Count of 0 marks the
// magnitude as unknown: the combination still gates which patterns
// are re-probed, but coverage delta-updates are disabled. With old.Cov
// present and every magnitude known, the deltas are arithmetic inputs
// (cov' = cov + added − removed), so they must be the true nets —
// extra combinations or duplicated entries are harmless only while
// some magnitude is unknown or old.Cov is absent (the probe paths,
// where membership alone matters). old must be the complete MUP result
// of the earlier state under the same Options; ix must reflect the
// current state. The result is identical to a from-scratch search.
//
// The repair runs in two phases, each confined to the part of the
// lattice a mutation could have changed:
//
//   - The seed pass revisits the old MUPs. An old MUP untouched by the
//     added set is still uncovered without a probe; its parents were
//     covered, so only removal-touched parents need one. A seed that
//     became covered re-expands its subtree downward (Repair's walk);
//     one that lost maximality is dropped — its new dominator is found
//     by the frontier pass.
//
//   - The frontier pass discovers newly uncovered MUPs: patterns that
//     were covered and fell below τ. Such a pattern is an ancestor of a
//     removed combination, and so are all its ancestors, so a top-down
//     PATTERN-BREAKER restricted to the removal-touched sub-lattice
//     (which is closed under parents and Rule 1 generation) finds every
//     one, probing only removal-touched candidates and stopping at the
//     uncovered frontier like any breaker descent.
//
// Probes against the (large) current oracle are issued only where a
// mutation could have changed the old verdict: two mini-oracles over
// the removed/added combinations decide whether a pattern's coverage
// could have dropped or risen, the Appendix-B dominance index over the
// old MUPs answers old-state questions in the seed pass for free, and
// when the delta magnitudes and old.Cov are available the surviving
// seeds' coverage is delta-updated (cov' = cov + added − removed)
// without probing at all. Both passes are level-chunked across
// popts.Workers goroutines. Repair cost therefore scales with the
// mutated cone of the lattice, not with the dataset or the size of the
// surviving MUP set.
func RepairBidirectional(ix index.Oracle, old *Result, removed, added []Delta, popts ParallelOptions) (*Result, error) {
	codec := pattern.NewCodec(ix.Cards())
	if codec.Packable() {
		return repairBidirectionalKeyed(ix, old, removed, added, popts, codec.PackedKey)
	}
	return repairBidirectionalKeyed(ix, old, removed, added, popts, stringKey)
}

// repairBidirectionalKeyed is the algorithm body, generic over the
// coverage-cache key representation (packed keys avoid string hashing
// in the hot maps, exactly as in the breaker variants).
func repairBidirectionalKeyed[K comparable](ix index.Oracle, old *Result, removed, added []Delta, popts ParallelOptions, key func(pattern.Pattern) K) (*Result, error) {
	opts := popts.Options
	cards := ix.Cards()
	res := &Result{Stats: Stats{Algorithm: "bidirectional-repair"}}
	if opts.Threshold <= 0 {
		res.Cov = []int64{}
		return res, nil // every pattern is covered
	}
	bound := opts.levelBound(len(cards))
	workers := popts.workers()

	rem, err := prepDeltas(ix, removed, "bidirectional repair removed", false)
	if err != nil {
		return nil, err
	}
	add, err := prepDeltas(ix, added, "bidirectional repair added", true)
	if err != nil {
		return nil, err
	}

	// The Appendix-B dominance index over the old MUPs: DominatedBy
	// proves a pattern was uncovered in the old state; for patterns at
	// level ≤ bound the converse holds too (the old set is complete up
	// to its level bound).
	oldDom := mupindex.New(cards)
	for _, m := range old.MUPs {
		if err := m.Validate(cards); err != nil {
			return nil, fmt.Errorf("mup: bidirectional repair seed %v: %w", m, err)
		}
		oldDom.Add(m)
	}

	oldCov := old.Cov
	if oldCov != nil && len(oldCov) != len(old.MUPs) {
		oldCov = nil
	}
	// exact: a surviving seed's coverage is the old value plus the
	// added matches minus the removed matches — no probe needed even
	// for mutation-touched seeds.
	exact := oldCov != nil && rem.exact && add.known && add.exact
	// covFill: the result will carry a complete Cov (probing the rare
	// emitted pattern whose value is not otherwise known). Without old
	// coverage values the probe-free skips of PR 2 are kept instead.
	covFill := oldCov != nil

	probers := make([]index.CoverageProber, workers)
	domProbers := make([]*mupindex.Prober, workers)
	for w := range probers {
		probers[w] = ix.NewCoverageProber()
		domProbers[w] = oldDom.NewProber()
	}
	covGlobal := make(map[K]int64)

	// Seed pass. The expansion waves hold nodes known to be uncovered
	// in the old state (old MUPs and, transitively, their descendants —
	// a child of a formerly uncovered node was uncovered too).
	//
	// The maximality checks below blank one element of a node's pattern
	// at a time, in place. The old MUPs are the caller's cached result —
	// a second repair from the same seed, or a reader of that result,
	// may be looking at them — so the seed wave works on copies.
	visited := make(map[K]bool, len(old.MUPs))
	wave := make([]repairNode, 0, len(old.MUPs))
	seeds := make([]uint8, 0, len(old.MUPs)*len(cards))
	for i, m := range old.MUPs {
		if k := key(m); !visited[k] {
			visited[k] = true
			seeds = append(seeds, m...)
			wave = append(wave, repairNode{p: seeds[len(seeds)-len(m) : len(seeds) : len(seeds)], seed: i})
		}
	}

	type waveOut struct {
		emitBuf
		probed   map[K]int64
		children []pattern.Pattern
		nodes    int64
	}

	emitted := make(map[K]bool)
	covValid := true
	var allCovs []int64
	merge := func(out *waveOut) {
		for k, c := range out.probed {
			covGlobal[k] = c
		}
		res.Stats.NodesVisited += out.nodes
		covValid = covValid && out.covValid
		for i, p := range out.mups {
			if k := key(p); !emitted[k] {
				emitted[k] = true
				res.MUPs = append(res.MUPs, p)
				allCovs = append(allCovs, out.covs[i])
			}
		}
	}

	for len(wave) > 0 {
		outs := make([]waveOut, workers)
		for i := range outs {
			outs[i].covValid = true
		}
		runChunks(wave, workers, func(w int, part []repairNode, _ int) {
			out := &outs[w]
			out.probed = make(map[K]int64)
			pr := probers[w]
			dom := domProbers[w]

			// The wave is processed in phases so every probe the wave
			// needs is issued through a handful of merged CoverageAll
			// batches instead of one oracle fan-out per pattern: a
			// batching prober (the sharded engine's) then walks its
			// partitions shard-major once per batch. Batch membership
			// is deduplicated against the cross-wave memo (covGlobal +
			// out.probed) and within the pending batch itself.
			var batchPats []pattern.Pattern
			var batchKeys []K
			var batchCovs []int64
			queued := make(map[K]struct{})
			lookup := func(k K) (int64, bool) {
				if c, ok := covGlobal[k]; ok {
					return c, true
				}
				c, ok := out.probed[k]
				return c, ok
			}
			collect := func(p pattern.Pattern) {
				k := key(p)
				if _, ok := lookup(k); ok {
					return
				}
				if _, ok := queued[k]; ok {
					return
				}
				queued[k] = struct{}{}
				batchPats = append(batchPats, p.Clone())
				batchKeys = append(batchKeys, k)
			}
			flush := func() {
				if len(batchPats) == 0 {
					return // no pending probes: no batch issued
				}
				if cap(batchCovs) < len(batchPats) {
					batchCovs = make([]int64, len(batchPats))
				}
				batchCovs = batchCovs[:len(batchPats)]
				index.CoverageAll(pr, batchPats, batchCovs)
				for i, k := range batchKeys {
					out.probed[k] = batchCovs[i]
				}
				batchPats, batchKeys = batchPats[:0], batchKeys[:0]
				clear(queued)
			}

			// Phase A — classify each node: still/again uncovered, and
			// its coverage if it can be had without a probe. Nodes whose
			// verdict needs the oracle contribute to the first batch.
			type nodeState struct {
				c        int64
				covKnown bool
				uncNow   bool
			}
			states := make([]nodeState, len(part))
			for i := range part {
				n := part[i]
				p := n.p
				out.nodes++
				st := &states[i]
				isSeed := n.seed >= 0
				switch {
				case isSeed && exact:
					st.c = oldCov[n.seed] + add.delta(p) - rem.delta(p)
					st.covKnown = true
				case isSeed && oldCov != nil && !add.touched(p) && rem.exact:
					// Nothing matching p was added, so the only change
					// is the removed matches.
					st.c = oldCov[n.seed] - rem.delta(p)
					st.covKnown = true
				case !add.touched(p):
					// Coverage cannot have risen: an old MUP (or an
					// old-uncovered expansion node) is still uncovered.
					st.uncNow = true
				default:
					collect(p)
				}
			}
			flush()
			for i := range part {
				st := &states[i]
				if st.uncNow {
					continue // probe-free verdict, coverage unknown
				}
				if !st.covKnown {
					st.c, _ = lookup(key(part[i].p))
					st.covKnown = true
				}
				st.uncNow = st.c < opts.Threshold
			}

			// Phase B — collect the parent probes the uncovered nodes'
			// maximality checks need. An old MUP's parents were all
			// covered, so only removal-touched ones can have dropped;
			// an expansion node's parents carry no such guarantee and
			// fall back to the dominance index.
			for i := range part {
				if !states[i].uncNow {
					continue
				}
				n := part[i]
				p := n.p
				isSeed := n.seed >= 0
				for j, v := range p {
					if v == pattern.Wildcard {
						continue
					}
					p[j] = pattern.Wildcard
					need := false
					switch {
					case !isSeed && dom.DominatedBy(p):
						// Uncovered in the old state: a probe decides
						// only if an append could have lifted it.
						need = add.touched(p)
					case !rem.touched(p):
						// Was covered, could not have dropped: no probe.
					default:
						need = true
					}
					if need {
						collect(p)
					}
					p[j] = v
				}
			}
			flush()

			// Phase C — resolve maximality from the memo, expand the
			// covered nodes, emit the maximal ones. Emitted patterns
			// whose coverage is still unknown (probe-free verdicts
			// under covFill) form one last small batch.
			var emitPend []int
			for i := range part {
				n := part[i]
				p := n.p
				st := &states[i]
				lvl := p.Level()
				if !st.uncNow {
					// Became covered: new MUPs under it sit strictly
					// below.
					if lvl < bound {
						out.children = append(out.children, p.Children(cards)...)
					}
					continue
				}
				isSeed := n.seed >= 0
				maximal := true
				for j, v := range p {
					if v == pattern.Wildcard {
						continue
					}
					p[j] = pattern.Wildcard
					var qUnc bool
					switch {
					case !isSeed && dom.DominatedBy(p):
						if !add.touched(p) {
							qUnc = true
						} else {
							c, _ := lookup(key(p))
							qUnc = c < opts.Threshold
						}
					case !rem.touched(p):
						qUnc = false
					default:
						c, _ := lookup(key(p))
						qUnc = c < opts.Threshold
					}
					p[j] = v
					if qUnc {
						// Not maximal. The new dominator is either
						// inside the old uncovered region (found from
						// its own old-MUP seed) or newly uncovered
						// (found by the frontier pass) — no climb
						// needed.
						maximal = false
						break
					}
				}
				if !maximal || lvl > bound {
					continue
				}
				if !st.covKnown && covFill {
					collect(p)
					emitPend = append(emitPend, i)
					continue
				}
				out.emit(p, st.c, st.covKnown)
			}
			flush()
			for _, i := range emitPend {
				p := part[i].p
				c, _ := lookup(key(p))
				out.emit(p, c, true)
			}
		})

		var next []repairNode
		for w := range outs {
			merge(&outs[w])
			for _, child := range outs[w].children {
				if k := key(child); !visited[k] {
					visited[k] = true
					next = append(next, repairNode{p: child, seed: -1})
				}
			}
		}
		wave = next
	}

	// Frontier pass: a PATTERN-BREAKER over the removal-touched
	// sub-lattice. Untouched subtrees cannot hold newly uncovered
	// patterns, and the descent stops at the uncovered frontier, so
	// the probe set is the touched slice of a full breaker's. Each
	// level is chunked across the workers like ParallelPatternBreaker.
	if rem.pool != nil {
		level := []pattern.Pattern{pattern.All(len(cards))}
		covered := make(map[K]struct{})
		for lvl := 0; lvl <= bound && len(level) > 0; lvl++ {
			outs := make([]waveOut, workers)
			for i := range outs {
				outs[i].covValid = true
			}
			coveredKeys := make([][]K, workers)
			runChunks(level, workers, func(w int, part []pattern.Pattern, _ int) {
				out := &outs[w]
				pr := probers[w]
				// Pass 1: parent pre-checks, no probes. Every parent is
				// touched (the touched region is closed under parents),
				// so each was a candidate in the previous round.
				live := make([]pattern.Pattern, 0, len(part))
				for _, p := range part {
					out.nodes++
					ok := true
					for j, v := range p {
						if v == pattern.Wildcard {
							continue
						}
						p[j] = pattern.Wildcard
						_, in := covered[key(p)]
						p[j] = v
						if !in {
							ok = false
							break
						}
					}
					if ok {
						live = append(live, p)
					}
				}
				// One merged probe for the worker's level slice. Each
				// candidate reaches this point once, so the seed pass's
				// memo map would only add hash traffic.
				covs := make([]int64, len(live))
				index.CoverageAll(pr, live, covs)
				// Pass 2: classify.
				var childBuf []pattern.Pattern
				for i, p := range live {
					if c := covs[i]; c < opts.Threshold {
						out.emit(p, c, true) // uncovered with all parents covered: a MUP
						continue
					}
					coveredKeys[w] = append(coveredKeys[w], key(p))
					if lvl < bound {
						childBuf = p.AppendRule1Children(childBuf[:0], cards)
						for _, child := range childBuf {
							if rem.touched(child) {
								out.children = append(out.children, child)
							}
						}
					}
				}
			})
			coveredNow := make(map[K]struct{})
			var next []pattern.Pattern
			for w := range outs {
				merge(&outs[w])
				for _, k := range coveredKeys[w] {
					coveredNow[k] = struct{}{}
				}
				next = append(next, outs[w].children...)
			}
			covered = coveredNow
			level = next
		}
	}

	if covValid {
		res.Cov = allCovs
		if res.Cov == nil {
			res.Cov = []int64{}
		}
	}
	for _, pr := range probers {
		res.Stats.CoverageProbes += pr.Probes()
	}
	sortResult(res)
	return res, nil
}
