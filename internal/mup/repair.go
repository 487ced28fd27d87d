package mup

import (
	"fmt"
	"math"
	"math/bits"

	"coverage/internal/index"
	"coverage/internal/mupindex"
	"coverage/internal/pattern"
)

// Delta is one distinct value combination whose multiplicity changed
// since a cached MUP result was computed, with the net signed change:
// Count > 0 means net rows added, Count < 0 net rows removed, and
// Count == 0 means the fact of the mutation is known but its magnitude
// is not (repairs then fall back from delta-updating the coverage
// values of the surviving MUPs to probing them).
type Delta struct {
	Combo pattern.Pattern
	Count int64
}

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
	codec := pattern.NewKeyCodec(cards)
	entries := make([]index.Entry, 0, len(deltas))
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
		entries = append(entries, index.Entry{Key: codec.PackedKey(d.Combo), Count: mag})
	}
	mini := index.BuildFromKeys(ix.Schema(), entries)
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
	opts := popts.Options
	cards := ix.Cards()
	key := pattern.NewCodec(cards).PackedKey
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

	visited := make(map[pattern.PackedKey]bool, len(old.MUPs))
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
	covGlobal := make(map[pattern.PackedKey]int64)

	type waveOut struct {
		emitBuf
		probed   map[pattern.PackedKey]int64
		children []pattern.Pattern
		nodes    int64
	}

	covValid := true
	survivors := 0 // seeds the first wave emits, still in old's order
	for first := true; len(wave) > 0; first = false {
		outs := make([]waveOut, workers)
		for i := range outs {
			outs[i].covValid = true
		}
		runChunks(wave, workers, func(w int, part []repairNode, _ int) {
			out := &outs[w]
			out.probed = make(map[pattern.PackedKey]int64)
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
		if first {
			survivors = len(res.MUPs)
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
	sortResultTail(res, survivors)
	return res, nil
}

// supersetSums replaces h, a table indexed by attribute subset, with
// its superset sums in place: h[S] = Σ h[T] over T ⊇ S (the zeta
// transform, d·2^(d−1) adds for 2^d cells).
func supersetSums(h []int64) {
	for bit := 1; bit < len(h); bit <<= 1 {
		for base := 0; base < len(h); base += bit << 1 {
			lo, hi := h[base:base+bit], h[base+bit:base+2*bit]
			for i := range lo {
				lo[i] += hi[i]
			}
		}
	}
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
// magnitude as unknown, which only disables the coverage delta-updates
// of the surviving seeds. With old.Cov present and every magnitude
// known, the deltas are arithmetic inputs (cov' = cov + added −
// removed), so they must be the true nets — extra combinations or
// duplicated entries are harmless only while some magnitude is unknown
// or old.Cov is absent. old must be the complete MUP result of the
// earlier state under the same Options; ix must reflect the current
// state. The result is identical to a from-scratch search.
//
// The repair runs in two passes:
//
//   - The cube pass finds the newly uncovered MUPs: patterns that were
//     covered and are maximal uncovered now. Such a pattern lost
//     coverage, so it is an ancestor of some removed combination c, and
//     the ancestors of c are exactly "c with a subset S of its
//     attributes kept": 2^d patterns, closed under parents. One
//     index.Oracle.MatchHistogram pass over the distinct combinations
//     followed by an in-place superset-sum transform gives the exact
//     current coverage of all of them, and a cell below τ whose parent
//     cells — the same table — are all at least τ is a MUP by
//     definition. That needs neither the old verdicts nor the removed
//     magnitudes, and no oracle probe.
//
//   - The seed pass revisits the old MUPs, as Repair does. A seed that
//     became covered re-expands its subtree downward; one that stayed
//     uncovered is still a MUP unless a parent fell below τ — and a
//     parent that was covered is uncovered now iff a newly uncovered
//     MUP from the cube pass dominates it, so that check is one probe
//     of a dominance index over those few patterns, not of the oracle.
//     Only a parent that was uncovered before (which the Appendix-B
//     dominance index over the old MUPs decides) and that an append
//     may have lifted needs the oracle.
//
// The oracle is therefore probed only under seeds an append lifted; a
// pure-deletion repair with exact deltas and old.Cov issues no probe at
// all (the surviving seeds' coverage is cov' = cov − removed). The cube
// pass costs R·(D·d + d·2^d) word operations for R removed and D
// distinct combinations, chunked across popts.Workers; the seed pass is
// linear in the old MUP set. Where the ancestor cube would exceed
// cubeMaxBytes (d > 20) a deletion runs the cold Search instead.
// Stats.CoverageProbes and Stats.NodesVisited (cube cells plus
// seed-pass nodes) do not depend on the worker count.
func RepairBidirectional(ix index.Oracle, old *Result, removed, added []Delta, popts ParallelOptions) (*Result, error) {
	opts := popts.Options
	tau := opts.Threshold
	cards := ix.Cards()
	key := pattern.NewCodec(cards).PackedKey
	d := len(cards)
	res := &Result{Stats: Stats{Algorithm: "bidirectional-repair"}}
	if tau <= 0 {
		res.Cov = []int64{}
		return res, nil // every pattern is covered
	}
	bound := opts.levelBound(d)
	workers := popts.workers()

	rem, err := prepDeltas(ix, removed, "bidirectional repair removed", false)
	if err != nil {
		return nil, err
	}
	add, err := prepDeltas(ix, added, "bidirectional repair added", true)
	if err != nil {
		return nil, err
	}
	if len(removed) > 0 && !ancestorCubeFits(d) {
		return Search(ix, popts)
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
	oldProbers := make([]*mupindex.Prober, workers)
	for w := range oldProbers {
		oldProbers[w] = oldDom.NewProber()
	}

	// The seed pass's first wave. Its maximality checks blank one
	// element of a node's pattern at a time, in place, and the old MUPs
	// are the caller's cached result — a second repair from the same
	// seed, or a reader of that result, may be looking at them — so the
	// wave works on one slab copy, which the surviving seeds of the
	// result then share.
	visited := make(map[pattern.PackedKey]bool, len(old.MUPs))
	wave := make([]repairNode, 0, len(old.MUPs))
	seeds := make([]uint8, 0, len(old.MUPs)*d)
	for i, m := range old.MUPs {
		if k := key(m); !visited[k] {
			visited[k] = true
			seeds = append(seeds, m...)
			wave = append(wave, repairNode{p: seeds[len(seeds)-d : len(seeds) : len(seeds)], seed: i})
		}
	}

	// Cube pass: the newly uncovered MUPs, each with its coverage.
	// Old-uncovered cells are left to the seed pass, which reaches every
	// MUP inside the old uncovered region from its own seed.
	var fresh emitBuf
	newDom := mupindex.New(cards)
	if len(removed) > 0 {
		outs := make([]emitBuf, workers)
		runChunks(removed, workers, func(w int, part []Delta, _ int) {
			out, wasUncovered := &outs[w], oldProbers[w]
			cube := make([]int64, 1<<d)
			p := make(pattern.Pattern, d)
			for _, r := range part {
				clear(cube)
				ix.MatchHistogram(r.Combo, cube)
				supersetSums(cube)
			cells:
				for s, c := range cube {
					if c >= tau || bits.OnesCount(uint(s)) > bound {
						continue
					}
					for rest := s; rest != 0; rest &= rest - 1 {
						if cube[s&^(rest&-rest)] < tau {
							continue cells // an uncovered parent: not maximal
						}
					}
					for j := range p {
						p[j] = pattern.Wildcard
						if s>>j&1 != 0 {
							p[j] = r.Combo[j]
						}
					}
					// Nearly every MUP cell is an old MUP; the key
					// lookup spares those the dominance probe.
					if !visited[key(p)] && !wasUncovered.DominatedBy(p) {
						out.emit(p, c, true)
					}
				}
			}
		})
		res.Stats.NodesVisited += int64(len(removed)) << d
		seen := make(map[pattern.PackedKey]bool)
		for w := range outs {
			for i, p := range outs[w].mups {
				if k := key(p); !seen[k] {
					seen[k] = true
					newDom.Add(p)
					fresh.mups = append(fresh.mups, p)
					fresh.covs = append(fresh.covs, outs[w].covs[i])
				}
			}
		}
	}
	newProbers := make([]*mupindex.Prober, workers)
	for w := range newProbers {
		newProbers[w] = newDom.NewProber()
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

	// Every oracle answer of the seed pass lives in memo. The workers of
	// a phase only read it and queue what they miss; between phases
	// resolve probes the queued patterns — deduplicated across workers,
	// so the probe count does not depend on the chunking — in one merged
	// CoverageAll batch per worker.
	probers := make([]index.CoverageProber, workers)
	for w := range probers {
		probers[w] = ix.NewCoverageProber()
	}
	memo := make(map[pattern.PackedKey]int64)
	asks := make([][]pattern.Pattern, workers)
	resolve := func() {
		var pats []pattern.Pattern
		var keys []pattern.PackedKey
		for w := range asks {
			for _, p := range asks[w] {
				k := key(p)
				if _, ok := memo[k]; !ok {
					memo[k] = 0
					pats, keys = append(pats, p), append(keys, k)
				}
			}
			asks[w] = asks[w][:0]
		}
		covs := make([]int64, len(pats))
		runChunks(pats, workers, func(w int, part []pattern.Pattern, lo int) {
			index.CoverageAll(probers[w], part, math.MaxInt64, covs[lo:lo+len(part)])
		})
		for i, k := range keys {
			memo[k] = covs[i]
		}
	}

	// Seed pass. The waves hold nodes known to be uncovered in the old
	// state (old MUPs and, transitively, their descendants — a child of
	// a formerly uncovered node was uncovered too).
	type nodeState struct {
		c        int64
		covKnown bool
		uncNow   bool
		asked    bool // a verdict waits on the phase's probes
		emit     bool
	}
	covValid := true
	survivors := 0 // seeds the first wave emits, still in old's order
	for first := true; len(wave) > 0; first = false {
		states := make([]nodeState, len(wave))

		// Phase A — classify each node: still/again uncovered, and its
		// coverage if it can be had without a probe.
		runChunks(wave, workers, func(w int, part []repairNode, lo int) {
			for i, n := range part {
				st, p := &states[lo+i], n.p
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
					st.asked = true
					asks[w] = append(asks[w], p)
				}
			}
		})
		resolve()

		// Phase B — maximality of the uncovered nodes. A parent that was
		// covered is uncovered now iff a newly uncovered MUP dominates
		// it, and then that MUP dominates the node too. An old MUP has
		// no other kind of parent; an expansion node's old-uncovered
		// parents are still uncovered unless an append lifted them.
		runChunks(wave, workers, func(w int, part []repairNode, lo int) {
			wasUncovered, fellBelow := oldProbers[w], newProbers[w]
			for i, n := range part {
				st, p := &states[lo+i], n.p
				if st.asked {
					st.c, st.covKnown, st.asked = memo[key(p)], true, false
				}
				if st.covKnown {
					st.uncNow = st.c < tau
				}
				if !st.uncNow || p.Level() > bound || fellBelow.DominatedBy(p) {
					continue
				}
				st.emit = true
				if n.seed >= 0 {
					continue
				}
				for j, v := range p {
					if v == pattern.Wildcard {
						continue
					}
					p[j] = pattern.Wildcard
					if wasUncovered.DominatedBy(p) {
						if add.touched(p) {
							st.asked = true
							asks[w] = append(asks[w], p.Clone())
						} else {
							st.emit = false
						}
					}
					p[j] = v
					if !st.emit {
						break
					}
				}
			}
		})
		resolve()

		// Phase C — settle the verdicts that waited on a probe, expand
		// the covered nodes, and ask for the coverage of the MUPs that
		// were classified without one.
		children := make([][]pattern.Pattern, workers)
		runChunks(wave, workers, func(w int, part []repairNode, lo int) {
			for i, n := range part {
				st, p := &states[lo+i], n.p
				if !st.uncNow {
					// Became covered: new MUPs under it sit strictly
					// below.
					if p.Level() < bound {
						children[w] = append(children[w], p.Children(cards)...)
					}
					continue
				}
				if st.asked {
					for j, v := range p {
						if v == pattern.Wildcard {
							continue
						}
						p[j] = pattern.Wildcard
						c, probed := memo[key(p)]
						p[j] = v
						if probed && c < tau {
							st.emit = false
							break
						}
					}
				}
				if st.emit && !st.covKnown && covFill {
					asks[w] = append(asks[w], p)
				}
			}
		})
		resolve()

		for i, n := range wave {
			st := &states[i]
			if !st.emit {
				continue
			}
			if !st.covKnown && covFill {
				st.c, st.covKnown = memo[key(n.p)], true
			}
			covValid = covValid && st.covKnown
			res.MUPs = append(res.MUPs, n.p)
			res.Cov = append(res.Cov, st.c)
		}
		if first {
			survivors = len(res.MUPs)
		}
		res.Stats.NodesVisited += int64(len(wave))
		wave = wave[:0]
		for _, list := range children {
			for _, child := range list {
				if k := key(child); !visited[k] {
					visited[k] = true
					wave = append(wave, repairNode{p: child, seed: -1})
				}
			}
		}
	}

	res.MUPs = append(res.MUPs, fresh.mups...)
	res.Cov = append(res.Cov, fresh.covs...)
	if !covValid {
		res.Cov = nil
	} else if res.Cov == nil {
		res.Cov = []int64{}
	}
	for _, pr := range probers {
		res.Stats.CoverageProbes += pr.Probes()
	}
	sortResultTail(res, survivors)
	return res, nil
}
