package mup

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"coverage/internal/index"
	"coverage/internal/mupindex"
	"coverage/internal/pattern"
)

// Delta is one distinct value combination whose multiplicity changed
// since a cached MUP result was computed, with the net signed change:
// Count > 0 means net rows added, Count < 0 net rows removed. A Count
// of 0 is invalid input — a combination whose net is zero changed no
// coverage and is left out.
type Delta struct {
	Combo pattern.Pattern
	Count int64
}

// deltaSet is one direction's mutation deltas, prepared to answer for
// any pattern p whether some delta combination matches it ("could
// cov(p) have changed this way?") and the summed magnitude of those
// that do — the exact coverage delta.
// Bit i of the mask of (attribute j, value v) is set iff delta i has
// value v at attribute j, so ANDing the masks of p's fixed attributes
// leaves the deltas matching p. A query costs ⌈n/64⌉ words per fixed
// attribute; the set is read-only, so the repair workers share it.
type deltaSet struct {
	// known is false when the set itself is unknown (nil input with
	// nilMeansUnknown): match then assumes every pattern touched.
	known bool
	n     int      // deltas
	words int      // mask words per (attribute, value): ⌈n/64⌉
	base  []int    // base[j]: first mask row of attribute j
	masks []uint64 // row base[j]+v holds words words
	mags  []int64  // |Count|
}

// prepDeltas validates and prepares one direction's deltas. role
// prefixes error messages; nilMeansUnknown selects whether a nil slice
// means "no mutations" (removed) or "unknown" (added).
func prepDeltas(ix index.Oracle, deltas []Delta, role string, nilMeansUnknown bool) (*deltaSet, error) {
	s := &deltaSet{known: deltas != nil || !nilMeansUnknown}
	if len(deltas) == 0 {
		return s, nil
	}
	cards := ix.Cards()
	s.n, s.words = len(deltas), (len(deltas)+63)/64
	s.base = make([]int, len(cards))
	rows := 0
	for j, c := range cards {
		s.base[j] = rows
		rows += c
	}
	s.masks = make([]uint64, rows*s.words)
	s.mags = make([]int64, len(deltas))
	for i, d := range deltas {
		if err := d.Combo.Validate(cards); err != nil {
			return nil, fmt.Errorf("mup: %s seed %v: %w", role, d.Combo, err)
		}
		if !d.Combo.IsFull() {
			return nil, fmt.Errorf("mup: %s seed %v is not a full value combination", role, d.Combo)
		}
		if d.Count == 0 {
			return nil, fmt.Errorf("mup: %s seed %v has net count 0", role, d.Combo)
		}
		s.mags[i] = max(d.Count, -d.Count)
		for j, v := range d.Combo {
			s.masks[(s.base[j]+int(v))*s.words+i/64] |= 1 << (i % 64)
		}
	}
	return s, nil
}

// match reports whether any of the set's combinations matches p — i.e.
// whether cov(p) could have changed in this direction — and, when sum
// is set, the summed magnitude of those that do. Without sum it stops
// at the first match. An unknown set touches everything and sums to 0.
func (s *deltaSet) match(p pattern.Pattern, sum bool) (touched bool, total int64) {
	if !s.known {
		return true, 0
	}
	for w := 0; w < s.words; w++ {
		m := ^uint64(0)
		if w == s.words-1 && s.n%64 != 0 {
			m = 1<<(s.n%64) - 1 // no deltas past n, even at the root
		}
		for j, v := range p {
			if v != pattern.Wildcard {
				if m &= s.masks[(s.base[j]+int(v))*s.words+w]; m == 0 {
					break
				}
			}
		}
		if m == 0 {
			continue
		}
		if !sum {
			return true, 0
		}
		touched = true
		for ; m != 0; m &= m - 1 {
			total += s.mags[w*64+bits.TrailingZeros64(m)]
		}
	}
	return touched, total
}

// touched is match without the sum.
func (s *deltaSet) touched(p pattern.Pattern) bool {
	t, _ := s.match(p, false)
	return t
}

// delta is match's sum.
func (s *deltaSet) delta(p pattern.Pattern) int64 {
	_, d := s.match(p, true)
	return d
}

// repairNode is one pattern in a repair wave; seed is its index into
// the old MUP set, or -1 for nodes discovered by expansion.
type repairNode struct {
	p    pattern.Pattern
	seed int
}

// seedWave validates the old MUPs and returns a repair's first wave:
// one node per distinct old MUP, in pattern.Compare order, each
// pattern a copy in one shared slab. Maximality checks blank elements
// of a node's pattern in place, and the old MUPs are the caller's
// cached result — a second repair from the same seed, or a reader of
// that result, may be looking at them — so the waves work on the slab,
// which the surviving seeds of the result then share. A result's MUPs
// are sorted already, so duplicates are neighbours.
func seedWave(old []pattern.Pattern, cards []int, role string) ([]repairNode, error) {
	d := len(cards)
	slab := make([]uint8, len(old)*d)
	wave := make([]repairNode, len(old))
	sorted := true
	for i, m := range old {
		if err := m.Validate(cards); err != nil {
			return nil, fmt.Errorf("mup: %s seed %v: %w", role, m, err)
		}
		p := pattern.Pattern(slab[i*d : (i+1)*d : (i+1)*d])
		copy(p, m)
		wave[i] = repairNode{p: p, seed: i}
		sorted = sorted && (i == 0 || pattern.Compare(old[i-1], m) <= 0)
	}
	if !sorted {
		slices.SortStableFunc(wave, func(a, b repairNode) int { return pattern.Compare(a.p, b.p) })
	}
	return slices.CompactFunc(wave, func(a, b repairNode) bool { return a.p.Equal(b.p) }), nil
}

// emitBuf collects one worker's emitted MUPs with their coverage
// values; covValid goes false when a value could not be determined.
// The patterns it is given become the result's: each must be private.
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
	b.mups = append(b.mups, p)
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
// increase in Count; nil means the added set is unknown. With a known
// added set, an old MUP matched by no added combination is still a MUP
// without any probe; with old.Cov present, even the touched MUPs are
// delta-updated (cov' = cov + Σ added matching) instead of re-probed,
// so the oracle is probed only under MUPs that actually became
// covered.
//
// The cost is one mask pass over the added set per old MUP — ⌈A/64⌉
// words per fixed attribute for A added combinations, answering both
// "touched?" and the matching sum — plus the probes and expansion under
// the lifted seeds. The old MUPs are copied once into one slab, which
// the surviving seeds of the result share. Stats.NodesVisited counts
// the seeds and the expansion nodes the waves visited.
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
	exact := oldCov != nil && add.known

	wave, err := seedWave(old.MUPs, cards, "repair")
	if err != nil {
		return nil, err
	}
	// visited deduplicates the expansion nodes. Old MUPs are an
	// antichain, so no child of one is another: seeds need no entry.
	visited := make(map[pattern.PackedKey]bool)

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
	survivors := 0 // seeds the first wave emits, still in Compare order
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
					touched, sum := add.match(p, exact)
					if !touched {
						if oldCov != nil {
							out.emit(p, oldCov[n.seed], true)
						} else {
							out.emit(p, 0, false)
						}
						continue
					}
					var c int64
					if exact {
						c = oldCov[n.seed] + sum
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
// transform, d·2^(d−1) adds for 2^d cells). The two lowest bits are
// summed together, in one pass over blocks of four cells.
func supersetSums(h []int64) {
	bit := 1
	if len(h) >= 4 {
		for base := 0; base < len(h); base += 4 {
			q := h[base : base+4 : base+4]
			q2, q3 := q[2]+q[3], q[3]
			q[0] += q[1] + q2
			q[1] += q3
			q[2] = q2
		}
		bit = 4
	}
	for ; bit < len(h); bit <<= 1 {
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
// means unknown). Counts carry the net change. With old.Cov present and
// the added set known, the deltas are arithmetic inputs (cov' = cov +
// added − removed), so they must be the true nets — extra combinations
// or duplicated entries are harmless only while the added set is
// unknown or old.Cov is absent. old must be the complete MUP result of
// the earlier state under the same Options; ix must reflect the
// current state. The result is identical to a from-scratch search.
//
// The repair runs in two passes:
//
//   - The cube pass finds the newly uncovered MUPs: patterns that were
//     covered and are maximal uncovered now. Such a pattern lost
//     coverage, so it is an ancestor of some removed combination r, and
//     the ancestors of r are exactly "r with a subset S of its
//     attributes kept": 2^d patterns, closed under parents. Every one
//     of them covers r, so when r's own count is still at least τ none
//     is uncovered and the cube is skipped, at the cost of one count
//     lookup. Otherwise one index.Oracle.MatchHistogram pass over the
//     distinct combinations followed by an in-place superset-sum
//     transform gives the exact current coverage of all of them, and a
//     cell below τ whose parent cells — the same table — are all at
//     least τ is a MUP by definition. It is new iff it was covered
//     before: with a known added set and old.Cov that is arithmetic
//     (cov + removed − added ≥ τ), otherwise a probe of the Appendix-B
//     dominance index over the old MUPs. No oracle probe either way.
//
//   - The seed pass revisits the old MUPs, as Repair does. A seed that
//     became covered re-expands its subtree downward; one that stayed
//     uncovered is still a MUP unless a parent fell below τ — and a
//     parent that was covered is uncovered now iff a newly uncovered
//     MUP from the cube pass dominates it, so that check is one probe
//     of a dominance index over those few patterns, not of the oracle.
//     Only a parent that was uncovered before (which the dominance
//     index over the old MUPs decides) and that an append may have
//     lifted needs the oracle.
//
// The oracle is therefore probed only under seeds an append lifted; a
// pure-deletion repair with an empty added set and old.Cov issues no
// probe at all (the surviving seeds' coverage is cov' = cov −
// removed). The cube pass costs R′·(D·d + d·2^d) word operations for
// the R′ removed combinations whose count fell below τ, over D
// distinct combinations, chunked across popts.Workers; the seed pass
// costs one mask pass over each direction's deltas per old MUP (⌈n/64⌉
// words per fixed attribute for n deltas). The dominance index over
// the old MUPs is built only when it is asked: by the cube pass when
// the added set is unknown or old.Cov is absent, and before the first
// expansion wave (which exists only when an append lifted a seed).
// Where the ancestor cube would exceed cubeMaxBytes (d > 20) a
// deletion runs the cold Search instead. Stats.NodesVisited counts the
// cells of the cubes built plus the seed-pass nodes; it and
// Stats.CoverageProbes do not depend on the worker count.
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
	wave, err := seedWave(old.MUPs, cards, "bidirectional repair")
	if err != nil {
		return nil, err
	}
	oldCov := old.Cov
	if oldCov != nil && len(oldCov) != len(old.MUPs) {
		oldCov = nil
	}
	// exact: every coverage the old state had is the current one plus
	// the removed matches minus the added matches. A surviving seed's
	// coverage then needs no probe even where a mutation touched it,
	// and a cube cell's old verdict needs no dominance index.
	exact := oldCov != nil && add.known

	// The Appendix-B dominance index over the old MUPs, built when first
	// needed: DominatedBy proves a pattern was uncovered in the old
	// state; for patterns at level ≤ bound the converse holds too (the
	// old set is complete up to its level bound).
	var oldProbers []*mupindex.Prober
	needOld := func() {
		if oldProbers != nil {
			return
		}
		oldDom := mupindex.New(cards)
		for _, m := range old.MUPs {
			oldDom.Add(m)
		}
		oldProbers = make([]*mupindex.Prober, workers)
		for w := range oldProbers {
			oldProbers[w] = oldDom.NewProber()
		}
	}

	// Cube pass: the newly uncovered MUPs, each with its coverage.
	// Old-uncovered cells are left to the seed pass, which reaches every
	// MUP inside the old uncovered region from its own seed.
	var fresh emitBuf
	newDom := mupindex.New(cards)
	if len(removed) > 0 {
		if !exact {
			needOld()
		}
		type cubeOut struct {
			emitBuf
			cubes int64
		}
		outs := make([]cubeOut, workers)
		runChunks(removed, workers, func(w int, part []Delta, _ int) {
			out := &outs[w]
			var cube []int64
			p := make(pattern.Pattern, d)
			for _, r := range part {
				if ix.ComboCount(r.Combo) >= tau {
					continue // every cell covers r: none is uncovered
				}
				if cube == nil {
					cube = make([]int64, 1<<d)
				} else {
					clear(cube)
				}
				out.cubes++
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
					var wasUncovered bool
					if exact {
						wasUncovered = c+rem.delta(p)-add.delta(p) < tau
					} else {
						wasUncovered = oldProbers[w].DominatedBy(p)
					}
					if !wasUncovered {
						out.emit(p.Clone(), c, true)
					}
				}
			}
		})
		seen := make(map[pattern.PackedKey]bool)
		for w := range outs {
			res.Stats.NodesVisited += outs[w].cubes << d
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
	survivors := 0 // seeds the first wave emits, still in Compare order
	// visited deduplicates the expansion nodes, as in Repair.
	visited := make(map[pattern.PackedKey]bool)
	for first := true; len(wave) > 0; first = false {
		states := make([]nodeState, len(wave))

		// Phase A — classify each node: still/again uncovered, and its
		// coverage if it can be had without a probe.
		runChunks(wave, workers, func(w int, part []repairNode, lo int) {
			for i, n := range part {
				st, p := &states[lo+i], n.p
				isSeed := n.seed >= 0
				// One mask pass over the added set answers both whether
				// p was touched and by how much.
				touched, sum := add.match(p, isSeed && exact)
				switch {
				case isSeed && exact:
					// The old value plus the added matches (none, when
					// untouched) minus the removed ones.
					st.c = oldCov[n.seed] + sum - rem.delta(p)
					st.covKnown = true
				case !touched:
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
		if !first {
			needOld()
		}
		runChunks(wave, workers, func(w int, part []repairNode, lo int) {
			fellBelow := newProbers[w]
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
					if oldProbers[w].DominatedBy(p) {
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
