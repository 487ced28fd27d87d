package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"coverage/internal/pattern"
)

// DeltaBaseline identifies the exact engine state a StateDelta is
// expressed against: the generation, the sliding window's coordinates
// (epoch, cumulative evictions, log length) and the (key, generation)
// references of every cached search and plan. The persistence layer
// holds the baseline of its last written snapshot (full or delta) and
// hands it back to CaptureDelta to produce the next link of the chain.
type DeltaBaseline struct {
	Generation uint64
	// WindowEpoch changes whenever the window log is created or
	// dropped; a delta can only be expressed within one epoch (the log
	// evolves purely by front-pops and tail-pushes there).
	WindowEpoch uint64
	// WindowEvicted is the engine's cumulative log-pop count at the
	// baseline — the absolute key-space coordinate of the log's head.
	WindowEvicted uint64
	// WindowLen is the baseline log's length (rows + tombstones).
	WindowLen int
	// Cache and Plans reference the baseline's cached entries by key
	// and generation, so an unchanged entry costs one reference in the
	// next delta instead of a payload.
	Cache []CachedSearchRef
	Plans []CachedPlanRef
}

// CachedSearchRef references one cached MUP search by key and the
// generation its payload reflects.
type CachedSearchRef struct {
	Tau      int64
	MaxLevel int
	Gen      uint64
}

// CachedPlanRef references one cached remediation plan by its full
// configuration key and the generation its payload reflects.
type CachedPlanRef struct {
	Tau           int64
	MUPMaxLevel   int
	MaxLevel      int
	MinValueCount uint64
	OracleFP      string
	CostFP        string
	Gen           uint64
}

func searchRefOf(c CachedSearch) CachedSearchRef {
	return CachedSearchRef{Tau: c.Tau, MaxLevel: c.MaxLevel, Gen: c.Gen}
}

func planRefOf(p CachedPlan) CachedPlanRef {
	return CachedPlanRef{
		Tau:           p.Tau,
		MUPMaxLevel:   p.MUPMaxLevel,
		MaxLevel:      p.MaxLevel,
		MinValueCount: p.MinValueCount,
		OracleFP:      p.OracleFP,
		CostFP:        p.CostFP,
		Gen:           p.Gen,
	}
}

// planRefKey is the comparable configuration key of a plan ref (the
// ref minus its generation).
type planRefKey struct {
	tau           int64
	mupMaxLevel   int
	maxLevel      int
	minValueCount uint64
	oracleFP      string
	costFP        string
}

func (r CachedPlanRef) key() planRefKey {
	return planRefKey{r.Tau, r.MUPMaxLevel, r.MaxLevel, r.MinValueCount, r.OracleFP, r.CostFP}
}

func (p CachedPlan) refKey() planRefKey {
	return planRefKey{p.Tau, p.MUPMaxLevel, p.MaxLevel, p.MinValueCount, p.OracleFP, p.CostFP}
}

// StateDelta is everything that changed between a DeltaBaseline and a
// later engine state: the new absolute multiplicities of every combo
// mutated in between (0 = removed), the window log expressed as a
// front-drop plus a tail-append against the baseline log, the
// mutation-log tails, the changed cache/plan payloads plus references
// to the unchanged ones, and the (small) full copies of the pending
// deletes and counters. Applied onto the baseline's State it
// reproduces the later state exactly; the cost of producing one is
// O(changes + caches), not O(state). Its keyed tables are KeyCount
// lists in strictly increasing raw-key order, like State's.
type StateDelta struct {
	// FromGeneration is the baseline generation this delta applies to;
	// Generation is the state it produces.
	FromGeneration uint64
	Generation     uint64
	Rows           int64

	// Counts holds the new absolute multiplicity of every combination
	// mutated since FromGeneration; 0 means the combination was
	// removed.
	Counts []KeyCount

	// Window is the new window bound. WindowDrop is how many entries to
	// drop from the front of the baseline's window log; WindowAppend
	// the entries to append after what remains. PendingDeletes and
	// Tombstones are full (small) copies.
	Window         int
	WindowDrop     int
	WindowAppend   []string
	PendingDeletes []KeyCount
	Tombstones     int64

	// Removed and Added carry the new horizons and only the records
	// with generations past FromGeneration; entries the baseline
	// already holds are reconstructed from it (minus those the new
	// horizons have trimmed).
	Removed MutationLog
	Added   MutationLog

	// Cache and Plans carry full payloads for entries created or
	// repaired since the baseline; CacheKept and PlansKept reference
	// baseline entries that are byte-identical (same key, same
	// generation). Entries in neither were evicted.
	Cache     []CachedSearch
	CacheKept []CachedSearchRef
	Plans     []CachedPlan
	PlansKept []CachedPlanRef

	// Counters is a full copy (13 integers).
	Counters Counters
}

// CaptureDelta captures the changes since base as a StateDelta,
// together with the baseline describing the captured state (the input
// to the next CaptureDelta). It reports ok=false — and captures
// nothing — when the delta cannot be expressed: a nil baseline, a
// mutation-log horizon that has passed the baseline generation (the
// touched-combo set is no longer enumerable), or a window epoch change
// (the log was created or dropped in between). Callers fall back to a
// full snapshot in that case.
//
// Like CaptureState, it holds the engine's read lock only while
// copying the mutable residue; unlike CaptureState there is no
// deferred merge, because nothing O(state) is touched at all.
func (e *ShardedEngine) CaptureDelta(base *DeltaBaseline) (*StateDelta, *DeltaBaseline, bool) {
	if base == nil {
		return nil, nil, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if base.Generation > e.gen {
		return nil, nil, false
	}
	// The touched-combo set comes from the mutation logs; if either
	// log has trimmed past the baseline, changes are unknowable.
	if e.removed.horizon > base.Generation || e.added.horizon > base.Generation {
		return nil, nil, false
	}
	if e.windowEpoch != base.WindowEpoch {
		return nil, nil, false
	}

	d := &StateDelta{
		FromGeneration: base.Generation,
		Generation:     e.gen,
		Rows:           e.rows,
		Window:         e.window,
		Tombstones:     e.tombstones,
		Counters:       e.countersLocked(),
	}

	// Changed combos: the keys of the log tails past the baseline, in
	// value order and each once, resolved to their current absolute
	// multiplicities.
	var touched []pattern.PackedKey
	for _, recs := range [][]mutRec{e.removed.recs, e.added.recs} {
		for i := len(recs) - 1; i >= 0 && recs[i].gen > base.Generation; i-- {
			touched = append(touched, recs[i].key)
		}
	}
	slices.SortFunc(touched, e.codec.CompareValues)
	touched = slices.Compact(touched)
	d.Counts = slices.Grow(d.Counts, len(touched)) // none stays nil
	for _, k := range touched {
		d.Counts = append(d.Counts, KeyCount{Key: keyString(e.codec, k), Count: e.cores[shardOf(e.codec, k, len(e.cores))].multiplicity(k)})
	}

	// Window: within one epoch the log evolves only by popping the
	// front and pushing the tail, so the new log is the baseline log
	// minus its popped prefix plus the entries past the baseline's
	// tail, both derivable from the absolute pop coordinate.
	if e.log != nil {
		if e.windowEvicted < base.WindowEvicted {
			return nil, nil, false // coordinate went backwards: foreign baseline
		}
		drop := e.windowEvicted - base.WindowEvicted
		if drop > uint64(base.WindowLen) {
			drop = uint64(base.WindowLen)
		}
		d.WindowDrop = int(drop)
		appendStart := base.WindowEvicted + uint64(base.WindowLen)
		if e.windowEvicted > appendStart {
			appendStart = e.windowEvicted
		}
		off := int(appendStart - e.windowEvicted)
		if off > e.log.len() {
			return nil, nil, false // baseline claims entries past our tail
		}
		d.WindowAppend = keyStrings(e.codec, e.log.live()[off:])
		d.PendingDeletes = countList(e.codec, e.pendingDeletes)
	}

	// Mutation-log tails plus current horizons.
	d.Removed = MutationLog{Horizon: e.removed.horizon, Recs: exportRecsSince(e.removed.recs, base.Generation, e.codec)}
	d.Added = MutationLog{Horizon: e.added.horizon, Recs: exportRecsSince(e.added.recs, base.Generation, e.codec)}

	// Caches: payloads for new or repaired entries, references for
	// entries the baseline already holds at the same generation.
	baseSearches := make(map[searchKey]uint64, len(base.Cache))
	for _, r := range base.Cache {
		baseSearches[searchKey{tau: r.Tau, maxLevel: canonLevel(r.MaxLevel, len(e.cards))}] = r.Gen
	}
	for key, c := range e.cache {
		if g, ok := baseSearches[key]; ok && g == c.gen {
			d.CacheKept = append(d.CacheKept, CachedSearchRef{Tau: key.tau, MaxLevel: key.maxLevel, Gen: c.gen})
			continue
		}
		d.Cache = append(d.Cache, CachedSearch{
			Tau:      key.tau,
			MaxLevel: key.maxLevel,
			Gen:      c.gen,
			MUPs:     c.res.MUPs,
			Cov:      c.res.Cov,
			Stats:    c.res.Stats,
		})
	}
	basePlans := make(map[planRefKey]uint64, len(base.Plans))
	for _, r := range base.Plans {
		basePlans[r.key()] = r.Gen
	}
	for key, c := range e.planCache {
		cp := exportPlan(key, c)
		if g, ok := basePlans[cp.refKey()]; ok && g == c.gen {
			d.PlansKept = append(d.PlansKept, planRefOf(cp))
			continue
		}
		d.Plans = append(d.Plans, cp)
	}
	sortSearches(d.Cache)
	sort.Slice(d.CacheKept, func(i, j int) bool {
		if d.CacheKept[i].Tau != d.CacheKept[j].Tau {
			return d.CacheKept[i].Tau < d.CacheKept[j].Tau
		}
		return d.CacheKept[i].MaxLevel < d.CacheKept[j].MaxLevel
	})
	sort.Slice(d.Plans, func(i, j int) bool { return d.Plans[i].keyLess(d.Plans[j]) })
	sort.Slice(d.PlansKept, func(i, j int) bool {
		return CachedPlan{
			Tau: d.PlansKept[i].Tau, MUPMaxLevel: d.PlansKept[i].MUPMaxLevel,
			MaxLevel: d.PlansKept[i].MaxLevel, MinValueCount: d.PlansKept[i].MinValueCount,
			OracleFP: d.PlansKept[i].OracleFP, CostFP: d.PlansKept[i].CostFP,
		}.keyLess(CachedPlan{
			Tau: d.PlansKept[j].Tau, MUPMaxLevel: d.PlansKept[j].MUPMaxLevel,
			MaxLevel: d.PlansKept[j].MaxLevel, MinValueCount: d.PlansKept[j].MinValueCount,
			OracleFP: d.PlansKept[j].OracleFP, CostFP: d.PlansKept[j].CostFP,
		})
	})

	next := &DeltaBaseline{
		Generation:    e.gen,
		WindowEpoch:   e.windowEpoch,
		WindowEvicted: e.windowEvicted,
	}
	if e.log != nil {
		next.WindowLen = e.log.len()
	}
	next.Cache = make([]CachedSearchRef, 0, len(d.Cache)+len(d.CacheKept))
	for _, c := range d.Cache {
		next.Cache = append(next.Cache, searchRefOf(c))
	}
	next.Cache = append(next.Cache, d.CacheKept...)
	next.Plans = make([]CachedPlanRef, 0, len(d.Plans)+len(d.PlansKept))
	for _, p := range d.Plans {
		next.Plans = append(next.Plans, planRefOf(p))
	}
	next.Plans = append(next.Plans, d.PlansKept...)
	return d, next, true
}

// countersLocked snapshots the monotonic counters; caller holds at
// least the read lock.
func (e *ShardedEngine) countersLocked() Counters {
	var compactions int64
	for _, c := range e.cores {
		compactions += c.compactions
	}
	return Counters{
		Appends:              e.appends,
		Deletes:              e.deletes,
		Evictions:            e.evictions,
		Compactions:          e.compactionsBase + compactions,
		FullSearches:         e.fullSearches,
		Repairs:              e.repairs,
		BidirectionalRepairs: e.bidirRepairs,
		CacheHits:            e.cacheHits.Load(),
		PlanProbes:           e.planProbes.Load(),
		PlanHits:             e.planHits.Load(),
		PlanBuilds:           e.planBuilds,
		PlanRepairs:          e.planRepairs,
		PlanRebuilds:         e.planRebuilds,
	}
}

// exportPlan converts one live plan-cache entry to its serializable
// form; caller holds at least the read lock.
func exportPlan(key planKey, c *cachedPlan) CachedPlan {
	cp := CachedPlan{
		Tau:           key.tau,
		MUPMaxLevel:   key.mupMaxLevel,
		MaxLevel:      key.maxLevel,
		MinValueCount: key.minValueCount,
		OracleFP:      key.oracleFP,
		CostFP:        key.costFP,
		Gen:           c.gen,
		Targets:       c.plan.Targets,
		Algorithm:     c.plan.Stats.Algorithm,
		Iterations:    c.plan.Stats.Iterations,
		Suggestions:   make([]PlanSuggestion, 0, len(c.plan.Suggestions)),
	}
	for _, s := range c.plan.Suggestions {
		cp.Suggestions = append(cp.Suggestions, PlanSuggestion{
			Combo:   s.Combo,
			Collect: s.Collect,
			Hits:    s.Hits,
			Cost:    s.Cost,
		})
	}
	return cp
}

// sortSearches orders cached searches by (Tau, MaxLevel), the
// deterministic serialization order.
func sortSearches(cs []CachedSearch) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Tau != cs[j].Tau {
			return cs[i].Tau < cs[j].Tau
		}
		return cs[i].MaxLevel < cs[j].MaxLevel
	})
}

// exportRecsSince exports the mutation-log records with generations
// past gen.
func exportRecsSince(recs []mutRec, gen uint64, codec *pattern.Codec) []MutationRec {
	start := len(recs)
	for start > 0 && recs[start-1].gen > gen {
		start--
	}
	if start == len(recs) {
		return nil
	}
	return exportRecs(slices.Clone(recs[start:]), codec)
}

// Apply layers the delta onto the state it was captured against,
// mutating st in place: each shard's count list is merged with its
// share of the delta's counts, the window log is re-derived from the
// drop/append pair, the mutation logs from the kept prefix plus the
// tail, and the caches from the kept references plus the new payloads.
// The result is in the form CaptureState produces, so a restore at the
// same shard count builds every core straight from its list.
// Everything is checked before the first mutation (the baseline
// generation, the delta's counts non-negative in strictly increasing
// key order, a drop no longer than the log, every kept cache or plan
// reference held by the state), so a rejected delta returns an error
// with st untouched — the caller keeps the base state and catches up
// through the WAL instead.
func (d *StateDelta) Apply(st *State) error {
	if st.Generation != d.FromGeneration {
		return fmt.Errorf("engine: delta from generation %d applied to state at %d", d.FromGeneration, st.Generation)
	}
	for i, kc := range d.Counts {
		if kc.Count < 0 {
			return fmt.Errorf("engine: delta count of %v is negative (%d)", pattern.Pattern(kc.Key), kc.Count)
		}
		if i > 0 && d.Counts[i-1].Key >= kc.Key {
			return fmt.Errorf("engine: delta count keys not strictly increasing at entry %d", i)
		}
	}
	if d.Window > 0 && d.WindowDrop > len(st.WindowLog) {
		return fmt.Errorf("engine: delta drops %d window entries, state has %d", d.WindowDrop, len(st.WindowLog))
	}
	oldSearches := make(map[CachedSearchRef]CachedSearch, len(st.Cache))
	for _, c := range st.Cache {
		oldSearches[searchRefOf(c)] = c
	}
	for _, r := range d.CacheKept {
		if _, ok := oldSearches[r]; !ok {
			return fmt.Errorf("engine: delta keeps cached search (τ=%d, level=%d, gen=%d) the state does not hold", r.Tau, r.MaxLevel, r.Gen)
		}
	}
	oldPlans := make(map[planRefKey]CachedPlan, len(st.Plans))
	for _, p := range st.Plans {
		oldPlans[p.refKey()] = p
	}
	for _, r := range d.PlansKept {
		if p, ok := oldPlans[r.key()]; !ok || p.Gen != r.Gen {
			return fmt.Errorf("engine: delta keeps cached plan (τ=%d, gen=%d) the state does not hold", r.Tau, r.Gen)
		}
	}

	if len(st.Counts) == 0 {
		st.Counts = make([][]KeyCount, 1)
	}
	shares := make([][]KeyCount, len(st.Counts))
	for _, kc := range d.Counts {
		s := shardOfRow(kc.Key, len(shares))
		shares[s] = append(shares[s], kc)
	}
	for s, share := range shares {
		if len(share) > 0 {
			st.Counts[s] = mergeCounts(st.Counts[s], share)
		}
	}
	st.Rows = d.Rows
	st.Generation = d.Generation

	// Window: the epoch guard in CaptureDelta guarantees the log's
	// nil-ness matches across the pair, so d.Window > 0 implies the
	// baseline state carries a window log to drop from and append to.
	st.Window = d.Window
	if d.Window > 0 {
		log := make([]string, 0, len(st.WindowLog)-d.WindowDrop+len(d.WindowAppend))
		log = append(log, st.WindowLog[d.WindowDrop:]...)
		log = append(log, d.WindowAppend...)
		st.WindowLog = log
		st.PendingDeletes = d.PendingDeletes
		st.Tombstones = d.Tombstones
	} else {
		st.WindowLog = nil
		st.PendingDeletes = nil
		st.Tombstones = 0
	}

	st.Removed = spliceLog(st.Removed, d.Removed)
	st.Added = spliceLog(st.Added, d.Added)

	cache := make([]CachedSearch, 0, len(d.Cache)+len(d.CacheKept))
	cache = append(cache, d.Cache...)
	for _, r := range d.CacheKept {
		cache = append(cache, oldSearches[r])
	}
	sortSearches(cache)
	st.Cache = cache

	plans := make([]CachedPlan, 0, len(d.Plans)+len(d.PlansKept))
	plans = append(plans, d.Plans...)
	for _, r := range d.PlansKept {
		plans = append(plans, oldPlans[r.key()])
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].keyLess(plans[j]) })
	st.Plans = plans

	st.Counters = d.Counters
	return nil
}

// mergeCounts merges a sorted count list with sorted new absolute
// counts of some of its keys and others, in one pass: a new count
// replaces the key's, and 0 drops it. An empty result is nil.
func mergeCounts(list, changes []KeyCount) []KeyCount {
	out := make([]KeyCount, 0, len(list)+len(changes))
	i := 0
	for _, kc := range changes {
		j, found := slices.BinarySearchFunc(list[i:], kc.Key, func(e KeyCount, k string) int { return strings.Compare(e.Key, k) })
		out = append(out, list[i:i+j]...)
		i += j
		if found {
			i++
		}
		if kc.Count > 0 {
			out = append(out, kc)
		}
	}
	out = append(out, list[i:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// spliceLog reconstructs a mutation log from the baseline's records
// plus the delta's tail: baseline records past the new horizon, then
// the tail records (already filtered to generations past the baseline
// generation and the horizon by construction).
func spliceLog(base, tail MutationLog) MutationLog {
	// Recs stays non-nil even when empty, matching the exporter's
	// canonical form so spliced states compare equal to exported ones.
	out := MutationLog{Horizon: tail.Horizon, Recs: make([]MutationRec, 0, len(base.Recs)+len(tail.Recs))}
	for _, r := range base.Recs {
		if r.Gen > tail.Horizon {
			out.Recs = append(out.Recs, r)
		}
	}
	for _, r := range tail.Recs {
		if r.Gen > tail.Horizon {
			out.Recs = append(out.Recs, r)
		}
	}
	return out
}
