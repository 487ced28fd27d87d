package engine

import (
	"context"
	"slices"
	"sync/atomic"

	"coverage/internal/enhance"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// PlanSpec configures a remediation-plan request against the engine's
// cached planner: the objective (exactly one of MaxLevel and
// MinValueCount) and the optional validation oracle and acquisition
// cost model. Together with the MUP search options it identifies a
// plan-cache slot.
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
// generation it reflects. The plan is immutable once stored.
type cachedPlan struct {
	gen  uint64
	plan *enhance.Plan
	last atomic.Uint64 // LRU stamp; cache hits under the read lock touch it
}

// Plan returns the additional-data-collection plan remedying the MUPs
// of the (mopts) search under spec — the engine-integrated, cached
// planner. Results are cached per (threshold, level bound, objective,
// oracle, cost model), with the least recently used configuration
// evicted beyond Options.MaxCachedPlans.
//
// A query at the cached plan's generation is answered from cache with
// no greedy work at all. After mutations, the cached MUP set is first
// repaired by MUPs (itself incremental) and the plan's targets are
// re-expanded from it. When they equal the cached plan's targets, that
// plan is still the plan for them and is kept with no greedy work;
// otherwise the greedy search re-plans from scratch. A configuration
// seen for the first time expands and plans from scratch. Every
// answer is the plan a from-scratch search over the current data
// returns, combination for combination.
//
// An invalid objective is rejected before the MUP search. ctx cancels
// the greedy search between pruning steps; a canceled request returns
// ctx.Err() without storing anything. The caller must not modify the
// returned plan.
func (e *ShardedEngine) Plan(ctx context.Context, mopts mup.Options, spec PlanSpec) (*enhance.Plan, error) {
	obj := enhance.Objective{MaxLevel: spec.MaxLevel, MinValueCount: spec.MinValueCount}
	if err := obj.Validate(e.cards); err != nil {
		return nil, err
	}
	key := planKeyFor(mopts, spec, len(e.cards))
	e.planProbes.Add(1)
	ans, err := e.MUPsAnswer(mopts)
	if err != nil {
		return nil, err
	}

	e.mu.RLock()
	prior, ok := e.planCache[key]
	if ok && prior.gen >= ans.Gen {
		plan := prior.plan
		prior.last.Store(e.useClock.Add(1))
		e.mu.RUnlock()
		e.planHits.Add(1)
		return plan, nil
	}
	e.mu.RUnlock()

	ts, err := enhance.NewTargetSet(ans.Res.MUPs, e.cards, obj, spec.Oracle)
	if err != nil {
		return nil, err
	}
	targets := ts.Targets()
	entry, outcome := &cachedPlan{gen: ans.Gen}, &e.planBuilds
	if prior != nil {
		outcome = &e.planRebuilds
		if slices.EqualFunc(targets, prior.plan.Targets, pattern.Pattern.Equal) {
			entry.plan, outcome = prior.plan, &e.planRepairs
		}
	}
	if entry.plan == nil {
		sopts := enhance.SearchOptions{Ctx: ctx}
		if spec.Cost != nil {
			entry.plan, err = enhance.GreedyWeightedSearch(targets, e.cards, spec.Oracle, spec.Cost, sopts)
		} else {
			entry.plan, err = enhance.GreedySearch(targets, e.cards, spec.Oracle, sopts)
		}
		if err != nil {
			return nil, err
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	*outcome++
	if c, ok := e.planCache[key]; !ok || c.gen <= entry.gen {
		e.storePlanLocked(key, entry)
	}
	return entry.plan, nil
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
