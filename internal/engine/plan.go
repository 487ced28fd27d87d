package engine

import (
	"context"
	"sync/atomic"

	"coverage/internal/enhance"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// PlanSpec configures a remediation-plan request against the engine's
// cached planner: the objective (exactly one of MaxLevel and
// MinValueCount), the optional validation oracle and acquisition cost
// model, and the greedy search's worker fan-out. Together with the MUP
// search options it identifies a plan-cache slot; Workers is excluded
// from the key because the plan is identical at every worker count.
type PlanSpec struct {
	// MaxLevel is λ: after collecting the plan's suggestions, no
	// pattern at level ≤ λ remains uncovered.
	MaxLevel int
	// MinValueCount selects the alternative objective: cover every
	// uncovered pattern matched by at least this many value
	// combinations.
	MinValueCount uint64
	// Oracle, when non-nil, restricts suggestions to semantically
	// valid combinations.
	Oracle *enhance.Oracle
	// Cost, when non-nil, switches to the weighted objective.
	Cost *enhance.CostModel
	// Workers is the goroutine count for the greedy branch fan-out;
	// 0 means the engine's Options.Workers default.
	Workers int
}

// planKey identifies one cached plan configuration. Oracles and cost
// models enter through their deterministic fingerprints, so equal rule
// sets share an entry regardless of pointer identity (and across
// snapshot restores).
type planKey struct {
	tau           int64
	mupMaxLevel   int
	maxLevel      int
	minValueCount uint64
	oracleFP      string
	costFP        string
}

func planKeyFor(mopts mup.Options, spec PlanSpec, d int) planKey {
	return planKey{
		tau:           mopts.Threshold,
		mupMaxLevel:   canonLevel(mopts.MaxLevel, d),
		maxLevel:      spec.MaxLevel,
		minValueCount: spec.MinValueCount,
		oracleFP:      spec.Oracle.Fingerprint(),
		costFP:        spec.Cost.Fingerprint(),
	}
}

// cachedPlan is one cached remediation plan, tagged with the data
// generation it reflects. basis is the MUP set its targets were
// expanded from; ts is the refcounted target set (nil on entries
// restored from a snapshot until the first repair rebuilds it from
// basis). The plan and basis are immutable once stored.
type cachedPlan struct {
	gen   uint64
	basis []pattern.Pattern
	ts    *enhance.TargetSet
	plan  *enhance.Plan
	last  atomic.Uint64 // LRU stamp; cache hits under the read lock touch it
}

// diffMUPs computes the set difference between two canonically sorted
// (pattern.Compare) MUP lists in one merge pass: removed holds
// patterns only in old, added those only in new.
func diffMUPs(old, new []pattern.Pattern) (removed, added []pattern.Pattern) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch pattern.Compare(old[i], new[j]) {
		case -1:
			removed = append(removed, old[i])
			i++
		case 1:
			added = append(added, new[j])
			j++
		default:
			i++
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, new[j:]...)
	return removed, added
}

// Plan returns the additional-data-collection plan remedying the MUPs
// of the (mopts) search under spec — the engine-integrated, cached,
// incremental planner. Results are cached per (threshold, level bound,
// objective, oracle, cost model), with the least recently used
// configuration evicted beyond Options.MaxCachedPlans.
//
// A query at the cached plan's generation is answered from cache with
// no greedy work at all. After mutations, the cached MUP set is first
// repaired by MUPs (itself incremental); the plan's target set is then
// repaired from the MUP-set delta — retracted MUPs drop their expanded
// targets, new MUPs expand only their own cones — and the greedy
// search re-runs only when the surviving target set actually changed,
// seeded with the prior plan's suggestions (a pure pruning
// accelerator: the re-planned result is identical to a from-scratch
// plan over the new targets, combination for combination). A
// configuration seen for the first time expands and plans from
// scratch.
//
// ctx cancels the greedy search between pruning steps; a canceled
// request returns ctx.Err() without storing anything. The caller must
// not modify the returned plan.
func (e *ShardedEngine) Plan(ctx context.Context, mopts mup.Options, spec PlanSpec) (*enhance.Plan, error) {
	key := planKeyFor(mopts, spec, len(e.cards))
	e.planProbes.Add(1)
	ans, err := e.MUPsAnswer(mopts)
	if err != nil {
		return nil, err
	}
	res, gen := ans.Res, ans.Gen

	e.mu.RLock()
	prior, ok := e.planCache[key]
	if ok && prior.gen >= gen {
		plan := prior.plan
		prior.last.Store(e.useClock.Add(1))
		e.mu.RUnlock()
		e.planHits.Add(1)
		return plan, nil
	}
	e.mu.RUnlock()

	obj := enhance.Objective{MaxLevel: spec.MaxLevel, MinValueCount: spec.MinValueCount}
	if err := obj.Validate(e.cards); err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = e.opts.workers()
	}
	sopts := enhance.SearchOptions{Ctx: ctx, Workers: workers}

	var outcome *int64
	var entry *cachedPlan
	if prior != nil {
		entry, outcome, err = e.repairPlan(prior, res, gen, obj, spec, sopts)
		if err != nil {
			return nil, err
		}
	}
	if entry == nil {
		// First sighting of this configuration — or a repair the
		// target set could not absorb (an over-wide cone): expand and
		// plan from scratch.
		ts, err := enhance.NewTargetSet(res.MUPs, e.cards, obj, spec.Oracle)
		if err != nil {
			return nil, err
		}
		plan, err := e.runGreedy(ts, spec, sopts)
		if err != nil {
			return nil, err
		}
		entry, outcome = &cachedPlan{gen: gen, basis: res.MUPs, ts: ts, plan: plan}, &e.planBuilds
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	*outcome++
	if c, ok := e.planCache[key]; !ok || c.gen <= entry.gen {
		e.storePlanLocked(key, entry)
	}
	return entry.plan, nil
}

// repairPlan advances a stale cached plan to the current MUP result:
// target-set repair from the MUP delta, then a seeded greedy re-run
// only if the targets changed. Cached entries are immutable — the
// repair works on a clone of the prior target set, so concurrent
// repairs from the same stale entry stay independent (duplicated work,
// like racing MUP searches, but never corruption). A (nil, nil, nil)
// return means the repair could not absorb the delta and the caller
// should rebuild from scratch; a non-nil error (cancellation, an
// unhittable target) would recur from scratch and is returned as is.
func (e *ShardedEngine) repairPlan(prior *cachedPlan, res *mup.Result, gen uint64, obj enhance.Objective, spec PlanSpec, sopts enhance.SearchOptions) (*cachedPlan, *int64, error) {
	removed, added := diffMUPs(prior.basis, res.MUPs)
	if len(removed) == 0 && len(added) == 0 {
		// The mutations left this MUP set untouched: the targets, and
		// therefore the plan, are provably current. Zero greedy work.
		return &cachedPlan{gen: gen, basis: res.MUPs, ts: prior.ts, plan: prior.plan}, &e.planRepairs, nil
	}
	ts := prior.ts
	if ts == nil {
		// Restored from a snapshot: rebuild the refcounted target set
		// from the entry's own basis before applying the delta.
		var err error
		ts, err = enhance.NewTargetSet(prior.basis, e.cards, obj, spec.Oracle)
		if err != nil {
			return nil, nil, nil
		}
	} else {
		ts = ts.Clone()
	}
	changed, err := ts.Repair(removed, added)
	if err != nil {
		return nil, nil, nil
	}
	if !changed {
		return &cachedPlan{gen: gen, basis: res.MUPs, ts: ts, plan: prior.plan}, &e.planRepairs, nil
	}
	sopts.Seeds = make([][]uint8, 0, len(prior.plan.Suggestions))
	for _, s := range prior.plan.Suggestions {
		sopts.Seeds = append(sopts.Seeds, s.Combo)
	}
	plan, err := e.runGreedy(ts, spec, sopts)
	if err != nil {
		return nil, nil, err
	}
	return &cachedPlan{gen: gen, basis: res.MUPs, ts: ts, plan: plan}, &e.planRebuilds, nil
}

// runGreedy dispatches the (possibly weighted) greedy hitting-set
// search over the target set.
func (e *ShardedEngine) runGreedy(ts *enhance.TargetSet, spec PlanSpec, sopts enhance.SearchOptions) (*enhance.Plan, error) {
	if spec.Cost != nil {
		return enhance.GreedyWeightedSearch(ts.Targets(), e.cards, spec.Oracle, spec.Cost, sopts)
	}
	return enhance.GreedySearch(ts.Targets(), e.cards, spec.Oracle, sopts)
}

// storePlanLocked inserts a plan-cache entry, evicting the least
// recently used one when the cache is full. Caller holds the write
// lock.
func (e *ShardedEngine) storePlanLocked(key planKey, c *cachedPlan) {
	if _, ok := e.planCache[key]; !ok && len(e.planCache) >= e.opts.maxCachedPlans() {
		var victim planKey
		first := true
		var oldest uint64
		for k, v := range e.planCache {
			if u := v.last.Load(); first || u < oldest {
				first, oldest, victim = false, u, k
			}
		}
		delete(e.planCache, victim)
	}
	c.last.Store(e.useClock.Add(1))
	e.planCache[key] = c
}
