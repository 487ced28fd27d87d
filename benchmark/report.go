package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// endToEndMetrics turns a run's record into the end-to-end metrics.
func endToEndMetrics(w workload, rr *runRecord) map[string]value {
	primary := rr.lat.ms[w.primary()]
	m := map[string]value{
		"setup_s":     {Value: median(rr.setupS), Samples: len(rr.setupS)},
		"ops_per_s":   {Value: rr.opsPerS, Samples: rr.primaryOps},
		"op_p50_ms":   {Value: median(primary), Samples: len(primary)},
		"recover_s":   {Value: rr.recoverS, Samples: crashes},
		"rss_peak_mb": {Value: rr.use.peakRSSMiB, Samples: 1},
	}
	if rr.mutated > 0 {
		m["wal_bytes_per_row"] = value{Value: rr.obs["persist.wal_bytes"] / float64(rr.mutated), Samples: int(rr.mutated)}
	}
	return withUnits(m, endToEnd)
}

// withUnits stamps each value with its spec's unit and fills metrics
// the run has nothing to say about with 0.
func withUnits(m map[string]value, specs []metricSpec) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v := m[s.Name]
		v.Unit = s.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		out[s.Name] = v
	}
	return out
}

// opKinds maps a root span, by the twins recorded under it, to the
// operation kind the workloads record latencies under.
func opKind(op []span) string {
	name := strings.TrimPrefix(op[0].Name, "op.")
	switch name {
	case "mups":
		for _, s := range op {
			switch s.Name {
			case "mup.search":
				return "mups_cold"
			case "mup.repair":
				return "mups_repair"
			case "mup.repair_bidirectional":
				return "mups_bidir"
			}
		}
		return "mups_hit"
	case "plan":
		for _, s := range op {
			if s.layer() == "enhance" {
				return "plan_cold"
			}
		}
		return "plan_repair"
	}
	return name
}

// layers are the modules a budget line adds up, in stack order.
var layers = []string{"registry", "coverage", "persist", "engine", "mup", "enhance"}

// opBreakdown is one traced operation: how long its root took and how
// much of that was each layer's own time.
type opBreakdown struct {
	root  float64 // ms
	layer map[string]float64
	// facadeSelf is the self time of the Analyzer.FindMUPs span, which
	// holds the engine's work too unless an engine twin sits under it.
	facadeSelf float64
	engineSeen bool
}

// traceSummary is what the per-layer metrics and the budget need from
// the spans: every operation broken down, by kind, and the durations of
// every named span.
type traceSummary struct {
	ops map[string][]opBreakdown
	dur map[string][]float64 // span name → durations, ms
	// lease is acquire+release per operation, ns.
	lease []float64
	// facade is the self time of Analyzer.FindMUPs on the operations
	// where the engine's part was timed separately (cache hits), ms.
	facade []float64
}

func summarize(spans []span) *traceSummary {
	ts := &traceSummary{ops: map[string][]opBreakdown{}, dur: map[string][]float64{}}
	selfNs := selfTimes(spans)
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].Op == spans[lo].Op {
			hi++
		}
		op := spans[lo:hi]
		b := opBreakdown{root: float64(op[0].duration()) / 1e6, layer: map[string]float64{}}
		var lease float64
		for i, s := range op {
			d, self := float64(s.duration())/1e6, float64(selfNs[lo+i])/1e6
			ts.dur[s.Name] = append(ts.dur[s.Name], d)
			switch {
			case i == 0:
				// The root's own time is loop and closure overhead; it
				// stays in the remainder.
			case s.Name == "coverage.find_mups":
				b.facadeSelf = self
			case s.Name == "engine.mups_hit":
				b.engineSeen = true
				b.layer["engine"] += self
			default:
				b.layer[s.layer()] += self
			}
			if s.Name == "registry.acquire" || s.Name == "registry.release" {
				lease += float64(s.duration())
			}
		}
		if lease > 0 {
			ts.lease = append(ts.lease, lease)
		}
		kind := opKind(op)
		ts.ops[kind] = append(ts.ops[kind], b)
		lo = hi
	}
	// Split the facade's self time: where the engine's part was timed
	// separately (cache hits) it is all the facade's; elsewhere the
	// facade is charged what it costs on a hit and the engine the rest.
	for _, bs := range ts.ops {
		for _, b := range bs {
			if b.engineSeen {
				ts.facade = append(ts.facade, b.facadeSelf)
			}
		}
	}
	est := median(ts.facade)
	for _, bs := range ts.ops {
		for i := range bs {
			b := &bs[i]
			switch {
			case b.engineSeen || b.facadeSelf < est:
				b.layer["coverage"] += b.facadeSelf
			default:
				b.layer["coverage"] += est
				b.layer["engine"] += b.facadeSelf - est
			}
		}
	}
	return ts
}

// budget is the account of one operation kind: the end-to-end median a
// caller saw over HTTP, what the in-process stack took for the same
// operations, and each layer's median own time within that.
type budget struct {
	Kind      string             `json:"kind"`
	Samples   int                `json:"samples"`
	E2E       float64            `json:"e2e_ms"`
	InProcess float64            `json:"in_process_ms"`
	Covserve  float64            `json:"covserve_self_ms"`
	Layers    map[string]float64 `json:"layer_self_ms"`
	Remainder float64            `json:"remainder_ms"`
	Percent   float64            `json:"remainder_pct"`
}

func budgets(http samples, ts *traceSummary) []budget {
	var out []budget
	for kind, ops := range ts.ops {
		if len(http[kind]) == 0 {
			continue
		}
		b := budget{Kind: kind, Samples: len(http[kind]), E2E: median(http[kind]), Layers: map[string]float64{}}
		roots := make([]float64, len(ops))
		for i, op := range ops {
			roots[i] = op.root
		}
		b.InProcess = median(roots)
		b.Covserve = b.E2E - b.InProcess
		accounted := b.Covserve
		for _, l := range layers {
			xs := make([]float64, len(ops))
			for i, op := range ops {
				xs[i] = op.layer[l]
			}
			b.Layers[l] = median(xs)
			accounted += b.Layers[l]
		}
		b.Remainder = b.E2E - accounted
		if b.E2E > 0 {
			b.Percent = 100 * b.Remainder / b.E2E
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

func (b budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "budget %-12s n=%-6d e2e %.3f ms = covserve %.3f", b.Kind, b.Samples, b.E2E, b.Covserve)
	for _, l := range layers {
		fmt.Fprintf(&sb, " + %s %.3f", l, b.Layers[l])
	}
	fmt.Fprintf(&sb, "; remainder %.3f ms (%.1f%%)", b.Remainder, b.Percent)
	return sb.String()
}

// traceInputs is everything the per-layer metrics are computed from.
type traceInputs struct {
	spec    workloadSpec
	http    *runRecord // the HTTP run: counts and what callers saw
	inproc  *runRecord // the in-process run: the same operations, traced
	ts      *traceSummary
	budgets []budget
	sys     *httpSystem
	insys   *inprocSystem
	extra   map[string]float64 // one-off measurements: baselines, calibration
}

// tailOrZero is the p-th percentile if the sample supports it by the
// ten-beyond rule, else 0.
func tailOrZero(xs []float64, p float64) float64 {
	if !supportsTail(len(xs), int(p*10)) {
		return 0
	}
	return percentile(xs, p)
}

func perLayerMetrics(in traceInputs) map[string]value {
	m := map[string]value{}
	set := func(name string, v float64, n int) { m[name] = value{Value: v, Samples: n} }
	lat, ilat := in.http.lat.ms, in.inproc.lat.ms
	med := func(name string, xs []float64) { set(name, median(xs), len(xs)) }
	selfOf := func(name string, kinds ...string) {
		for _, k := range kinds {
			if len(lat[k]) > 0 && len(ilat[k]) > 0 {
				set(name, median(lat[k])-median(ilat[k]), len(lat[k]))
				return
			}
		}
	}
	// The first /mups of a workload that is not a cache hit: repaired
	// on refresh, cold on audit.
	mupsKinds := []string{"mups_repair", "mups_cold"}
	var mups []float64
	for _, k := range mupsKinds {
		if len(lat[k]) > 0 && len(mups) == 0 {
			mups = lat[k]
		}
	}
	plans := append(append([]float64(nil), lat["plan_repair"]...), lat["plan_cold"]...)

	med("covserve.append.p50_ms", lat["append"])
	set("covserve.append.p99_ms", tailOrZero(lat["append"], 99), len(lat["append"]))
	selfOf("covserve.append.self_ms", "append")
	set("covserve.append.req_bytes", float64(in.sys.appendBytes), 1)
	med("covserve.delete.p50_ms", lat["delete"])
	med("covserve.coverage.p50_ms", lat["coverage"])
	set("covserve.coverage.p99_ms", tailOrZero(lat["coverage"], 99), len(lat["coverage"]))
	selfOf("covserve.coverage.self_ms", "coverage")
	med("covserve.mups.p50_ms", mups)
	set("covserve.mups.p90_ms", tailOrZero(mups, 90), len(mups))
	selfOf("covserve.mups.self_ms", mupsKinds...)
	med("covserve.mups_hit.p50_ms", lat["mups_hit"])
	selfOf("covserve.mups_hit.self_ms", "mups_hit")
	med("covserve.plan.p50_ms", plans)
	selfOf("covserve.plan.self_ms", "plan_repair", "plan_cold")
	med("covserve.append_cycle.p50_ms", lat["append_cycle"])
	med("covserve.delete_cycle.p50_ms", lat["delete_cycle"])
	if bulk := sum(lat["bulk"]); bulk > 0 {
		set("covserve.bulk_rows_per_s", sum(in.http.lat.bulkRows)/(bulk/1e3), len(lat["bulk"]))
	}
	med("covserve.boot_ms", in.sys.boots)
	set("covserve.cpu_s_per_kop", in.http.cpuS/float64(in.http.drivenOps)*1e3, in.http.drivenOps)
	set("covserve.requests", float64(in.http.sent), 1)
	set("covserve.failed", float64(in.http.failed), 1)

	ts := in.ts
	if xs := ts.dur["coverage.parse_pattern"]; len(xs) > 0 {
		set("coverage.parse_pattern_ns", median(xs)*1e6/patternsPerRequest, len(xs))
	}
	med("coverage.find_mups_self_ms", ts.facade)

	med("registry.lease_ns", ts.lease)
	set("registry.restores", in.http.obs["registry.restores"], 1)
	set("registry.evictions", in.http.obs["registry.evictions"], 1)
	med("registry.ensure_ms", ts.dur["registry.ensure"])
	med("registry.drop_ms", ts.dur["registry.drop"])

	// Store calls made for a single request, not the 4096-row chunks of
	// a bulk stream: those are the operations of kind append.
	var appendDur, appendSelf, engineAppend []float64
	for _, b := range ts.ops["append"] {
		appendSelf = append(appendSelf, b.layer["persist"])
		engineAppend = append(engineAppend, b.layer["engine"])
		appendDur = append(appendDur, b.layer["persist"]+b.layer["engine"])
	}
	med("persist.append_ms", appendDur)
	med("persist.append_self_ms", appendSelf)
	med("engine.append_ms", engineAppend)
	var engineDelete []float64
	for _, b := range ts.ops["delete"] {
		engineDelete = append(engineDelete, b.layer["engine"])
	}
	med("engine.delete_ms", engineDelete)
	for _, name := range []string{
		"persist.group_commits", "persist.coalesced_appends", "persist.wal_records", "persist.wal_bytes",
		"persist.snapshot_bytes", "persist.snapshots", "persist.delta_snapshots",
		"engine.compactions", "engine.distinct_combinations", "engine.store_bytes",
		"engine.incremental_repairs", "engine.bidirectional_repairs", "engine.cache_hits", "engine.full_searches",
		"engine.plan_builds", "engine.plan_target_repairs", "engine.plan_seeded_rebuilds", "engine.plan_hits",
		"mup.probes", "mup.mups", "enhance.targets", "enhance.tuples", "covserve.mups.resp_bytes",
	} {
		set(name, in.http.obs[name], 1)
	}
	if c := in.http.obs["persist.group_commits"]; c > 0 {
		set("persist.records_per_commit", (in.http.obs["persist.group_records"]+in.http.obs["persist.coalesced_appends"])/c, int(c))
	}
	med("persist.snapshot_ms", ts.dur["persist.snapshot"])
	if worst := in.http.obs["persist.snapshot_worst_append_ms"]; worst > 0 {
		set("persist.snapshot_stall_ms", worst-median(lat["append"]), len(lat["snapshot"]))
	}
	var replayed, deltas int
	for _, info := range in.insys.recoveries {
		replayed += info.Replayed
		deltas += info.DeltasApplied
	}
	// Every crash recovers every tenant; the metrics are per crash.
	recoverMs := sum(ts.dur["persist.recover"]) / crashes
	set("persist.recover_ms", recoverMs, len(ts.dur["persist.recover"]))
	set("persist.replayed_records", float64(replayed)/crashes, crashes)
	set("persist.deltas_applied", float64(deltas)/crashes, crashes)
	if replayed > 0 {
		set("persist.replay_us_per_record", recoverMs*1e3*crashes/float64(replayed), replayed)
	}

	if xs := ts.dur["engine.coverage_batch"]; len(xs) > 0 {
		set("engine.coverage_batch_us", median(xs)*1e3, len(xs))
		set("engine.probe_ns", median(xs)*1e6/patternsPerRequest, len(xs))
	}
	facadeOf := func(kind string) []float64 {
		var xs []float64
		for _, b := range ts.ops[kind] {
			xs = append(xs, b.layer["coverage"]+b.layer["engine"]+b.layer["mup"])
		}
		return xs
	}
	med("engine.mups_repair_ms", facadeOf("mups_repair"))
	med("engine.mups_bidir_ms", facadeOf("mups_bidir"))
	med("engine.mups_cold_ms", facadeOf("mups_cold"))
	if xs := ts.dur["engine.mups_hit"]; len(xs) > 0 {
		set("engine.mups_hit_us", median(xs)*1e3, len(xs))
	}
	if cold := m["engine.mups_cold_ms"].Value; cold > 0 && len(ts.ops["mups_repair"]) > 0 {
		set("engine.repair_vs_cold", m["engine.mups_repair_ms"].Value/cold, len(ts.ops["mups_repair"]))
	}
	planOf := func(kind string) []float64 {
		var xs []float64
		for _, b := range ts.ops[kind] {
			xs = append(xs, b.layer["engine"]+b.layer["enhance"])
		}
		return xs
	}
	med("engine.plan_repair_ms", planOf("plan_repair"))
	med("engine.plan_cold_ms", planOf("plan_cold"))

	med("mup.search_ms", ts.dur["mup.search"])
	med("mup.repair_ms", ts.dur["mup.repair"])
	med("mup.repair_bidir_ms", ts.dur["mup.repair_bidirectional"])
	if n := in.http.obs["mup.mups"]; n > 0 {
		set("mup.probes_per_mup", in.http.obs["mup.probes"]/n, int(n))
	}
	med("enhance.targets_ms", ts.dur["enhance.targets"])
	med("enhance.greedy_ms", ts.dur["enhance.greedy"])

	for _, b := range in.budgets {
		if b.Kind == in.spec.budget {
			set("budget.remainder_pct", b.Percent, b.Samples)
		}
	}
	for name, v := range in.extra {
		set(name, v, 1)
	}
	return withUnits(m, perLayer)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// MarshalJSON drops the sample count: the contract's metric objects
// hold exactly a value and a unit.
func (r resultLine) MarshalJSON() ([]byte, error) {
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]bare, len(r.Metrics))
	for k, v := range r.Metrics {
		metrics[k] = bare{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// printMetrics writes every metric by name with unit and sample count,
// in the order of the spec.
func printMetrics(w io.Writer, title string, specs []metricSpec, m map[string]value) {
	fmt.Fprintf(w, "%s\n", title)
	for _, s := range specs {
		v := m[s.Name]
		fmt.Fprintf(w, "  %-34s %16.4f %-7s n=%d\n", s.Name, v.Value, v.Unit, v.Samples)
	}
}

// printLatencies writes, per operation kind, the median and the
// highest percentile the sample supports, with the sample count.
func printLatencies(w io.Writer, lat samples) {
	kinds := make([]string, 0, len(lat))
	for k := range lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintln(w, "latency by operation kind (ms)")
	for _, k := range kinds {
		xs := lat[k]
		line := fmt.Sprintf("  %-14s n=%-6d p50=%.3f", k, len(xs), median(xs))
		if p, ok := tailPercentile(len(xs)); ok {
			line += fmt.Sprintf(" p%g=%.3f", p, percentile(xs, p))
		}
		fmt.Fprintln(w, line)
	}
}
