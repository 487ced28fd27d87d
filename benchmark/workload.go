package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// sizing is how much work one run does.
type sizing struct {
	// seconds is the length of the measured phase: each client keeps
	// issuing operations from its fixed, seed-determined sequence until
	// the time is up.
	seconds float64
	// warm is how long the clients run that sequence before the measured
	// phase begins. Operations completed by then are performed and
	// checked like any other but are in no latency or throughput figure.
	warm float64
	// ops, when positive, replaces the clock: each client performs
	// exactly this many primary operations. The in-test pass uses it so
	// that counters repeat exactly.
	ops int
	// scale shrinks every dataset and threshold; 1 in the benchmark.
	scale float64
}

// limiter tells a client when its loop, warm-up and measured phase
// together, ends.
type limiter struct {
	deadline time.Time
	ops      int
}

func (sz sizing) limiter() limiter {
	return limiter{deadline: time.Now().Add(time.Duration((sz.warm + sz.seconds) * float64(time.Second))), ops: sz.ops}
}

// done reports whether a client that has completed n primary
// operations should stop.
func (l limiter) done(n int) bool {
	if l.ops > 0 {
		return n >= l.ops
	}
	return !time.Now().Before(l.deadline)
}

// tally counts what the contract calls attempted and failed: every
// request sent and every answer checked, and those among them that
// came back non-2xx or wrong. The first few failures are kept to
// print.
type tally struct {
	checks, wrong atomic.Int64
	mu            sync.Mutex
	notes         []string
}

// check records one correctness check and its outcome.
func (t *tally) check(err error) {
	t.checks.Add(1)
	if err != nil {
		t.wrong.Add(1)
		t.note(err)
	}
}

func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.notes) < 10 {
		t.notes = append(t.notes, err.Error())
	}
}

// workload is one traffic mix. A run calls setup on a fresh server,
// then drive once per client concurrently, then finish, then crashes
// and restarts the server, then verify. Every method reaches the
// system only through the executor it is handed, so the HTTP run and
// the in-process traced run execute the same operations.
type workload interface {
	// clients is the number of closed-loop connections (≤ nproc on the
	// two-core reference host).
	clients() int
	// primary is the operation kind that op_p50_ms and ops_per_s report.
	primary() string
	// setup creates and preloads the tenants and warms the caches the
	// measured phase relies on. It resets the workload's own state, so
	// it can run against several fresh servers in turn.
	setup(x executor, rec *recorder) error
	// drive is one client's measured loop.
	drive(x executor, client int, lim limiter, rec *recorder) error
	// finish runs on one client after the loops have stopped, before
	// the crash.
	finish(x executor, rec *recorder) error
	// tenants are the ids that must exist after recovery, with the
	// models the benchmark kept of them.
	tenants() map[string]*model
	// verify runs the checks that need the whole run's record: sampled
	// answers against the model states they were given under, and
	// probes of the recovered server.
	verify(x executor) error
	// observed returns what the workload itself measured beside
	// latencies: counter deltas and sizes, by per-layer metric name.
	observed() map[string]float64
	// mutatedRows is the number of rows appended or deleted since
	// set-up; with the observed persist.wal_bytes it gives
	// wal_bytes_per_row.
	mutatedRows() int64
}

// workloadSpec names a workload, says why it exists, and builds it
// from a seed; the workload records its correctness checks in t.
type workloadSpec struct {
	name string
	why  string
	// budget is the request kind whose budget stands for the workload
	// in budget.remainder_pct: the primary operation if that is one
	// request, else the request that dominates it.
	budget string
	make   func(seed int64, scale float64, t *tally) workload
}

var workloads = []workloadSpec{
	{"ingest", "durable write path: 2 writers share group commit, fsync and inline snapshots; search layers idle", "append", newIngest},
	{"probe", "read path: sweeps of 64-pattern coverage batches over 3 tenants with a trickle of writes; smallest work per request", "coverage", newProbe},
	{"refresh", "the paper's incremental premise: 100-row mutation, MUP repair, cache hit, plan repair, one uncontended writer", "mups_bidir", newRefresh},
	{"audit", "cold path: create tenant, bulk-load, full lattice search per threshold, from-scratch plan, drop", "mups_cold", newAudit},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// walMeter sums a tenant's WAL counters across segment rotations:
// /stats reports the current segment only, so the meter reads it just
// before every snapshot the workload takes and once at the end.
// Records written by another client between the read and the rotation
// are missed; with snapshots thousands of records apart that is a few
// hundredths of a percent.
type walMeter struct {
	baseBytes, baseRecords int64
	bytes, records         int64
}

func (m *walMeter) start(c *tenantCounters) {
	m.baseBytes, m.baseRecords = c.WALBytes, c.WALRecords
	m.bytes, m.records = 0, 0
}

// fold adds the counters read just before a snapshot (or at the end
// of the run) and restarts the count for the next segment.
func (m *walMeter) fold(c *tenantCounters) {
	m.bytes += c.WALBytes - m.baseBytes
	m.records += c.WALRecords - m.baseRecords
	m.baseBytes, m.baseRecords = 0, 0
}

// counterDelta adds after−before of every monotonic counter to acc.
func counterDelta(acc map[string]float64, before, after *tenantCounters) {
	add := func(name string, b, a int64) { acc[name] += float64(a - b) }
	add("engine.compactions", before.Compactions, after.Compactions)
	add("engine.full_searches", before.FullSearches, after.FullSearches)
	add("engine.incremental_repairs", before.Repairs, after.Repairs)
	add("engine.bidirectional_repairs", before.BidirRepairs, after.BidirRepairs)
	add("engine.cache_hits", before.CacheHits, after.CacheHits)
	add("engine.plan_hits", before.PlanHits, after.PlanHits)
	add("engine.plan_builds", before.PlanBuilds, after.PlanBuilds)
	add("engine.plan_target_repairs", before.PlanTargetRepairs, after.PlanTargetRepairs)
	add("engine.plan_seeded_rebuilds", before.PlanSeededRebuilds, after.PlanSeededRebuilds)
	add("persist.snapshots", before.Snapshots, after.Snapshots)
	add("persist.delta_snapshots", before.DeltaSnapshots, after.DeltaSnapshots)
	add("persist.group_commits", before.GroupCommits, after.GroupCommits)
	add("persist.group_records", before.GroupRecords, after.GroupRecords)
	add("persist.coalesced_appends", before.CoalescedAppends, after.CoalescedAppends)
}

// counterLevels adds the end-of-run sizes (not deltas) of a tenant.
func counterLevels(acc map[string]float64, c *tenantCounters) {
	acc["engine.distinct_combinations"] += float64(c.Distinct)
	acc["engine.store_bytes"] += float64(c.StoreBytes)
	if float64(c.LastSnapshotBytes) > acc["persist.snapshot_bytes"] {
		acc["persist.snapshot_bytes"] = float64(c.LastSnapshotBytes)
	}
}
