package main

import (
	"fmt"
	"slices"
	"time"

	"coverage/internal/dataset"
)

const refreshTenant = "airbnb13"

// refreshSample is one cycle's answers with the rows they were given
// over, kept for checking after the run.
type refreshSample struct {
	state *model
	mups  *mupsAnswer
	plan  *planAnswer
}

// refresh is the paper's incremental premise as a caller meets it: a
// small mutation, then the audit again. One client runs rounds of two
// cycles — append batch k, then delete batch k−1 — and each cycle is
// mutate → /mups (repaired from the cached set) → /mups (cache hit) →
// /plan (repaired from the MUP delta). Rows stay within 200 of the
// preload and both repair directions run equally often. It is also the
// uncontended single-writer commit: group size 1, unlike ingest.
type refresh struct {
	t         *tally
	schema    *dataset.Schema
	preload   [][]uint8
	batches   [][][]uint8
	tau       int64
	planLevel int
	keepEvery int

	m       *model
	before  *tenantCounters
	mutated int64
	kept    []refreshSample
	obs     map[string]float64
}

func newRefresh(seed int64, scale float64, t *tally) workload {
	preload := scaled(100000, scale)
	c := genAirBnB(13)(preload+256*batchRows, seed)
	return &refresh{
		t:         t,
		schema:    c.schema,
		preload:   c.rows[:preload],
		batches:   batchesOf(c.rows[preload:]),
		tau:       scaledTau(100, preload, scale),
		planLevel: 4,
		keepEvery: 4,
	}
}

func (w *refresh) clients() int    { return 1 }
func (w *refresh) primary() string { return "round" }

func (w *refresh) setup(x executor, rec *recorder) error {
	w.m = newModel(w.schema)
	w.obs = map[string]float64{}
	w.kept = nil
	w.mutated = 0
	d, err := x.create(refreshTenant, w.schema)
	if err != nil {
		return err
	}
	rec.add("create", d)
	if d, err = x.bulk(refreshTenant, w.preload); err != nil {
		return err
	}
	rec.addBulk(d, len(w.preload))
	w.m.add(w.preload)
	// The cold search and the cold plan fill the caches every later
	// request repairs; one full append cycle then leaves the tenant in
	// the state every measured round starts from.
	_, d, err = x.mups(refreshTenant, w.tau)
	if err != nil {
		return err
	}
	rec.add("mups_cold", d)
	if _, d, err = x.plan(refreshTenant, w.tau, w.planLevel); err != nil {
		return err
	}
	rec.add("plan_cold", d)
	if _, err := w.cycle(x, newRecorder(), 0, true); err != nil {
		return err
	}
	w.mutated = 0
	if w.before, err = x.counters(refreshTenant); err != nil {
		return err
	}
	return nil
}

// repairKind names the first /mups of a cycle by what the engine must
// do for it: a downward repair after an append, a bidirectional one
// after a delete.
var repairKind = map[bool]string{true: "mups_repair", false: "mups_bidir"}

// cycle mutates with batch k (append or delete), asks for the MUPs
// twice and for the plan, and returns the time the caller waited.
func (w *refresh) cycle(x executor, rec *recorder, k int, isAppend bool) (float64, error) {
	b := w.batches[k%len(w.batches)]
	dir := "delete"
	if isAppend {
		dir = "append"
	}
	var total float64
	took := func(kind string, d time.Duration) {
		rec.add(kind, d)
		total += ms(d)
	}
	if isAppend {
		d, err := x.appendRows(refreshTenant, b)
		if err != nil {
			return 0, err
		}
		took("append", d)
		w.m.add(b)
	} else {
		d, err := x.deleteRows(refreshTenant, b)
		if err != nil {
			return 0, err
		}
		took("delete", d)
		w.m.remove(b)
	}
	w.mutated += batchRows
	repaired, d, err := x.mups(refreshTenant, w.tau)
	if err != nil {
		return 0, err
	}
	took(repairKind[isAppend], d)
	hit, d, err := x.mups(refreshTenant, w.tau)
	if err != nil {
		return 0, err
	}
	took("mups_hit", d)
	plan, d, err := x.plan(refreshTenant, w.tau, w.planLevel)
	if err != nil {
		return 0, err
	}
	took("plan_repair", d)
	if !slices.Equal(hit.MUPs, repaired.MUPs) {
		return 0, fmt.Errorf("the cache hit after the %s of batch %d differs from the repaired answer", dir, k)
	}
	w.obs["mup.probes"] += float64(repaired.Probes)
	w.obs["mup.mups"] = float64(repaired.Total)
	w.obs["covserve.mups.resp_bytes"] = float64(repaired.Bytes)
	w.obs["enhance.targets"] = float64(plan.Targets)
	w.obs["enhance.tuples"] = float64(plan.Tuples)
	if k%w.keepEvery == 0 {
		w.kept = append(w.kept, refreshSample{state: w.m.clone(), mups: repaired, plan: plan})
	}
	rec.addMs(dir+"_cycle", total)
	return total, nil
}

func (w *refresh) drive(x executor, _ int, lim limiter, rec *recorder) error {
	for n := 0; !lim.done(n); n++ {
		k := n + 1
		a, err := w.cycle(x, rec, k, true)
		if err != nil {
			return err
		}
		d, err := w.cycle(x, rec, k-1, false)
		if err != nil {
			return err
		}
		rec.addMs("round", a+d)
	}
	return nil
}

func (w *refresh) finish(x executor, rec *recorder) error {
	after, err := x.counters(refreshTenant)
	if err != nil {
		return err
	}
	counterDelta(w.obs, w.before, after)
	counterLevels(w.obs, after)
	w.obs["persist.wal_bytes"] = float64(after.WALBytes - w.before.WALBytes)
	w.obs["persist.wal_records"] = float64(after.WALRecords - w.before.WALRecords)
	return nil
}

func (w *refresh) tenants() map[string]*model { return map[string]*model{refreshTenant: w.m} }
func (w *refresh) mutatedRows() int64         { return w.mutated }
func (w *refresh) observed() map[string]float64 {
	return w.obs
}

// verify checks the kept cycles — the MUP set by mup.VerifyResult
// against an index over the benchmark's own rows at that point, the
// plan by hitting every target — and then the recovered server, whose
// caches the crash emptied, with a from-scratch audit.
func (w *refresh) verify(x executor) error {
	for _, s := range w.kept {
		ps, err := s.state.checkMUPs(s.state.oracle(), w.tau, s.mups)
		w.t.check(err)
		if err == nil {
			w.t.check(s.state.checkPlan(ps, w.planLevel, s.plan))
		}
	}
	a, _, err := x.mups(refreshTenant, w.tau)
	if err != nil {
		return fmt.Errorf("auditing the recovered server: %w", err)
	}
	_, err = w.m.checkMUPs(w.m.oracle(), w.tau, a)
	w.t.check(err)
	return nil
}
