package main

import (
	"encoding/json"
	"io"
)

// metricSpec is one named metric of the benchmark's public contract;
// BENCHMARK.json lists the same names, units and directions, and a test
// holds the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload — written down before measuring.
	Moves string
}

// The end-to-end metrics are what a caller of covserve sees, and every
// workload reports all of them: op_p50_ms and ops_per_s are about the
// workload's primary operation (a 100-row /append on ingest, a sweep of
// three 64-pattern /coverage requests, one per tenant, on probe, a round
// of two mutate→mups→mups→plan cycles on refresh, a pass over the corpus
// on audit).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "wal_bytes_per_row", Unit: "B/row", Better: "lower", Bound: 0.02},
}

const (
	onIngest  = "ingest"
	onProbe   = "probe"
	onRefresh = "refresh"
	onAudit   = "audit"
	onAll     = "all"
)

func moves(metric string, workloads ...string) string {
	s := metric + " on"
	for i, w := range workloads {
		if i > 0 {
			s += ","
		}
		s += " " + w
	}
	return s
}

// The per-layer metrics, by layer. Times come from the traced
// in-process run, counts from the server's own counters around the
// HTTP run, covserve.* from the HTTP run itself.
var perLayer = []metricSpec{
	// covserve: HTTP, JSON, routing, admission. self_ms is the HTTP
	// median minus the in-process median of the same operation kind.
	{Name: "covserve.append.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onIngest)},
	{Name: "covserve.append.p99_ms", Unit: "ms", Better: "lower", Moves: moves("ops_per_s", onIngest)},
	{Name: "covserve.append.self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onIngest)},
	{Name: "covserve.append.req_bytes", Unit: "B", Better: "lower", Moves: moves("op_p50_ms", onIngest)},
	{Name: "covserve.delete.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "covserve.coverage.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onProbe)},
	{Name: "covserve.coverage.p99_ms", Unit: "ms", Better: "lower", Moves: moves("ops_per_s", onProbe)},
	{Name: "covserve.coverage.self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onProbe)},
	{Name: "covserve.mups.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "covserve.mups.p90_ms", Unit: "ms", Better: "lower", Moves: moves("ops_per_s", onRefresh, onAudit)},
	{Name: "covserve.mups.self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "covserve.mups.resp_bytes", Unit: "B", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "covserve.mups_hit.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "covserve.mups_hit.self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "covserve.plan.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "covserve.plan.self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "covserve.append_cycle.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "covserve.delete_cycle.p50_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "covserve.bulk_rows_per_s", Unit: "rows/s", Better: "higher", Moves: moves("setup_s", onAll) + "; op_p50_ms on audit"},
	{Name: "covserve.boot_ms", Unit: "ms", Better: "lower", Moves: moves("setup_s", onAll) + "; recover_s on all"},
	{Name: "covserve.cpu_s_per_kop", Unit: "s", Better: "lower", Moves: moves("ops_per_s", onAll)},
	{Name: "covserve.requests", Unit: "count", Better: "higher", Moves: moves("ops_per_s", onAll)},
	{Name: "covserve.failed", Unit: "count", Better: "lower", Moves: "failed operations on all (expected 0)"},

	// coverage: the root Analyzer facade.
	{Name: "coverage.parse_pattern_ns", Unit: "ns", Better: "lower", Moves: moves("op_p50_ms", onProbe)},
	{Name: "coverage.find_mups_self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},

	// registry: tenant table, leases, create and drop.
	{Name: "registry.lease_ns", Unit: "ns", Better: "lower", Moves: moves("op_p50_ms", onProbe)},
	{Name: "registry.restores", Unit: "count", Better: "lower", Moves: "op_p50_ms on probe (expected 0 before the crash)"},
	{Name: "registry.evictions", Unit: "count", Better: "lower", Moves: "op_p50_ms on probe (expected 0)"},
	{Name: "registry.ensure_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit)},
	{Name: "registry.drop_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit)},

	// persist: committer, WAL, snapshots, recovery.
	{Name: "persist.append_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onIngest, onRefresh)},
	{Name: "persist.append_self_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onIngest, onRefresh)},
	{Name: "persist.group_commits", Unit: "count", Better: "lower", Moves: moves("ops_per_s", onIngest)},
	{Name: "persist.records_per_commit", Unit: "ratio", Better: "higher", Moves: moves("ops_per_s", onIngest) + " (1 on refresh)"},
	{Name: "persist.coalesced_appends", Unit: "count", Better: "higher", Moves: moves("ops_per_s", onIngest)},
	{Name: "persist.wal_records", Unit: "count", Better: "lower", Moves: moves("wal_bytes_per_row", onAll)},
	{Name: "persist.wal_bytes", Unit: "B", Better: "lower", Moves: moves("wal_bytes_per_row", onAll)},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower", Moves: moves("ops_per_s", onIngest)},
	{Name: "persist.snapshot_bytes", Unit: "B", Better: "lower", Moves: moves("recover_s", onIngest)},
	{Name: "persist.snapshots", Unit: "count", Better: "lower", Moves: moves("ops_per_s", onIngest)},
	{Name: "persist.delta_snapshots", Unit: "count", Better: "higher", Moves: moves("ops_per_s", onIngest)},
	{Name: "persist.snapshot_stall_ms", Unit: "ms", Better: "lower", Moves: "covserve.append.p99_ms on ingest, never a median"},
	{Name: "persist.recover_ms", Unit: "ms", Better: "lower", Moves: moves("recover_s", onAll)},
	{Name: "persist.replayed_records", Unit: "count", Better: "lower", Moves: moves("recover_s", onAll)},
	{Name: "persist.deltas_applied", Unit: "count", Better: "lower", Moves: moves("recover_s", onIngest)},
	{Name: "persist.replay_us_per_record", Unit: "us", Better: "lower", Moves: moves("recover_s", onAll)},

	// engine: sharded coordinator, count tables, MUP and plan caches.
	{Name: "engine.append_ms", Unit: "ms", Better: "lower", Moves: moves("ops_per_s", onIngest) + "; setup_s on all"},
	{Name: "engine.delete_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.compactions", Unit: "count", Better: "lower", Moves: moves("ops_per_s", onIngest)},
	{Name: "engine.distinct_combinations", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onProbe) + "; rss_peak_mb on all"},
	{Name: "engine.store_bytes", Unit: "B", Better: "lower", Moves: moves("rss_peak_mb", onAll)},
	{Name: "engine.coverage_batch_us", Unit: "us", Better: "lower", Moves: moves("op_p50_ms", onProbe)},
	{Name: "engine.probe_ns", Unit: "ns", Better: "lower", Moves: moves("ops_per_s", onProbe)},
	{Name: "engine.mups_repair_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.mups_bidir_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.mups_hit_us", Unit: "us", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.mups_cold_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit) + "; setup_s on refresh"},
	{Name: "engine.repair_vs_cold", Unit: "ratio", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.incremental_repairs", Unit: "count", Better: "higher", Moves: moves("op_p50_ms", onRefresh) + " (0 elsewhere)"},
	{Name: "engine.bidirectional_repairs", Unit: "count", Better: "higher", Moves: moves("op_p50_ms", onRefresh) + " (0 elsewhere)"},
	{Name: "engine.cache_hits", Unit: "count", Better: "higher", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.full_searches", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onAudit) + " (0 on refresh after warm-up)"},
	{Name: "engine.plan_repair_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.plan_cold_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit)},
	{Name: "engine.plan_builds", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onAudit)},
	{Name: "engine.plan_target_repairs", Unit: "count", Better: "higher", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.plan_seeded_rebuilds", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "engine.plan_hits", Unit: "count", Better: "higher", Moves: "none: no workload asks for the same plan twice"},

	// mup: lattice search and repair, on the engine's own oracle.
	{Name: "mup.search_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit)},
	{Name: "mup.deepdiver_ms", Unit: "ms", Better: "lower", Moves: "none: the paper's baseline on the same oracle"},
	{Name: "mup.repair_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "mup.repair_bidir_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onRefresh)},
	{Name: "mup.probes", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "mup.mups", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "mup.probes_per_mup", Unit: "ratio", Better: "lower", Moves: moves("op_p50_ms", onRefresh, onAudit)},
	{Name: "mup.alloc_bytes_per_search", Unit: "B", Better: "lower", Moves: moves("op_p50_ms", onAudit) + "; rss_peak_mb on audit"},
	{Name: "mup.allocs_per_search", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onAudit)},

	// enhance: hitting-set planner.
	{Name: "enhance.targets_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit)},
	{Name: "enhance.greedy_ms", Unit: "ms", Better: "lower", Moves: moves("op_p50_ms", onAudit)},
	{Name: "enhance.targets", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onAudit, onRefresh)},
	{Name: "enhance.tuples", Unit: "count", Better: "lower", Moves: moves("op_p50_ms", onAudit, onRefresh)},

	// The budget of the workload's primary request kind and what
	// qualifies the numbers; these move nothing.
	{Name: "budget.remainder_pct", Unit: "%", Better: "lower", Moves: "none: the share of the end-to-end median no layer accounts for"},
	{Name: "bench.build_s", Unit: "s", Better: "lower", Moves: "none"},
	{Name: "bench.gen_ms", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "bench.client_cpu_s", Unit: "s", Better: "lower", Moves: "none: the load generator's own CPU, on the cores the server shares"},
	{Name: "trace.span_overhead_ns", Unit: "ns", Better: "lower", Moves: "none: bounds the tracing share of every in-process time"},
	{Name: "host.fsync_us", Unit: "us", Better: "lower", Moves: "none: labels append latencies as this host's"},
}

// runSeconds is the length of the measured phase the driver asks for:
// long enough that every workload's primary operation completes at
// least six times on the two-core reference host, short enough that
// the driver's 92 runs, each with three set-ups, a warm-up, five
// crashes and recoveries, stay well inside its time cap.
const runSeconds = 12

// warmSeconds is how long the clients run before the measured phase
// begins: ingest takes that long to reach its steady rate.
const warmSeconds = 3

// writeSpec writes BENCHMARK.json from the tables above, so the file
// at the repository root and the names the program prints cannot
// drift: `go run ./benchmark spec > BENCHMARK.json`.
func writeSpec(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		spec.Workloads = append(spec.Workloads, named{wl.name, wl.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
