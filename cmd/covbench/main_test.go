package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestTauFor(t *testing.T) {
	cases := []struct {
		rate float64
		n    int
		want int64
	}{
		{0.001, 1000000, 1000},
		{0.01, 116300, 1163},
		{1e-9, 1000, 1},   // never below 1
		{1e-6, 100000, 1}, // rounds down to the floor of 1
		{0.05, 6889, 344}, // truncation, not rounding
	}
	for _, tc := range cases {
		if got := tauFor(tc.rate, tc.n); got != tc.want {
			t.Errorf("tauFor(%v, %d) = %d, want %d", tc.rate, tc.n, got, tc.want)
		}
	}
}

func TestCellStr(t *testing.T) {
	if got := cellStr(-1); got != "-" {
		t.Errorf("cellStr(-1) = %q", got)
	}
	if got := cellStr(1.2345); got != "1.234" && got != "1.235" {
		t.Errorf("cellStr(1.2345) = %q", got)
	}
}

func TestExperimentRegistryNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.desc == "" || e.run == nil {
			t.Errorf("experiment %+v incomplete", e.name)
		}
		if seen[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
	}
	if len(seen) != 19 {
		t.Errorf("%d experiments registered, want 19 (one per figure/table, plus engine, persist, shard, plan, registry, replica and wal)", len(seen))
	}
}

// TestRegistryBenchWritesJSON smokes the multi-tenant registry
// benchmark at toy scale: the report must decode and hold one result
// per workload, each with a positive ns/op.
func TestRegistryBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	old := registryBenchReps
	registryBenchReps = 1
	defer func() { registryBenchReps = old }()
	out := filepath.Join(t.TempDir(), "BENCH_registry.json")
	registryBench(config{n: 10000, seed: 42, registryOut: out})
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep registryBenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if rep.Tenants != 4 || rep.RowsPerTenant != 500 {
		t.Errorf("report header = %+v", rep)
	}
	want := []string{"acquire-release", "lease-probe", "lease-mup-search", "park-restore", "create-drop"}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(want))
	}
	for i, r := range rep.Results {
		if r.Workload != want[i] {
			t.Errorf("result %d = %q, want %q", i, r.Workload, want[i])
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("result %q = %+v", r.Name, r)
		}
	}
	// The tenancy tax ordering the design promises: leasing a warm
	// tenant is orders of magnitude cheaper than a park/restore round
	// trip.
	if rep.Results[0].NsPerOp >= rep.Results[3].NsPerOp {
		t.Errorf("acquire-release (%.0f ns) not cheaper than park-restore (%.0f ns)",
			rep.Results[0].NsPerOp, rep.Results[3].NsPerOp)
	}
}

// TestShardBenchWritesJSON smokes the shard-scaling sweep at toy
// scale: the report must decode, hold one result per (workload, shard
// count) cell, and carry the honest scaling summary for its regime —
// per-core speedup curves on a multi-core host, the overhead_only tag
// and *no* speedups on a single-core one.
func TestShardBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	out := filepath.Join(t.TempDir(), "BENCH_shard.json")
	shardBench(config{n: 3000, seed: 42, shardOut: out})
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep shardBenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if rep.DatasetRows != 3000 || len(rep.ShardCounts) != 4 {
		t.Errorf("report header = %+v", rep)
	}
	if want := 3 * len(rep.ShardCounts); len(rep.Results) != want {
		t.Fatalf("%d results, want %d", len(rep.Results), want)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.Shards <= 0 {
			t.Errorf("result %q = %+v", r.Name, r)
		}
	}
	if rep.GoMaxProcs == 1 {
		// Single-core regime: the run measures coordinator overhead
		// only, so it must say so and must not report speedups at all.
		if !rep.OverheadOnly {
			t.Error("GOMAXPROCS=1 run not tagged overhead_only")
		}
		if rep.SpeedupVs1 != nil || rep.Speedup4v1 != nil {
			t.Errorf("GOMAXPROCS=1 run carries speedups: vs1=%v 4v1=%v", rep.SpeedupVs1, rep.Speedup4v1)
		}
		return
	}
	if rep.OverheadOnly {
		t.Errorf("GOMAXPROCS=%d run tagged overhead_only", rep.GoMaxProcs)
	}
	for _, w := range []string{"append", "mup-search", "mup-repair-delete"} {
		if rep.Speedup4v1[w] <= 0 {
			t.Errorf("missing 4-vs-1 speedup for %q", w)
		}
		if len(rep.SpeedupVs1[w]) != len(rep.ShardCounts)-1 {
			t.Errorf("speedup curve for %q = %v, want one point per shard count above 1", w, rep.SpeedupVs1[w])
		}
	}
}

// TestPlanBenchWritesJSON smokes the remediation-planner benchmark at
// toy scale: the report must decode, hold one result per (workload,
// workers) cell, and carry the incremental-vs-scratch speedup summary.
func TestPlanBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	out := filepath.Join(t.TempDir(), "BENCH_plan.json")
	planBench(config{n: 3000, seed: 42, planOut: out})
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep planBenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if rep.DatasetRows != 3000 || len(rep.WorkerCounts) != 2 || rep.MutationRows != 100 {
		t.Errorf("report header = %+v", rep)
	}
	if want := 3 * len(rep.WorkerCounts); len(rep.Results) != want {
		t.Fatalf("%d results, want %d", len(rep.Results), want)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.Workers <= 0 {
			t.Errorf("result %q = %+v", r.Name, r)
		}
	}
	for _, w := range []string{"workers=1", "workers=4"} {
		if rep.SpeedupIncremental[w] <= 0 {
			t.Errorf("missing incremental speedup for %q", w)
		}
	}
}

// TestPersistBenchWritesJSON smokes the persistence benchmark at toy
// scale: the report must decode, hold one series point, and show the
// headline property — restoring a snapshot is faster than rebuilding
// the engine from raw rows.
func TestPersistBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	rep := persistBenchSmoke(t.TempDir())
	if len(rep.Series) != 2 {
		t.Fatalf("%d series points, want 2 (quick sizes)", len(rep.Series))
	}
	for _, pt := range rep.Series {
		if pt.Rows <= 0 || pt.Distinct <= 0 || pt.SnapshotBytes <= 0 {
			t.Errorf("series point = %+v", pt)
		}
		if pt.SnapshotWriteNs <= 0 || pt.RestoreNs <= 0 || pt.RebuildNs <= 0 || pt.WarmBootNs <= 0 || pt.WALAppendNs <= 0 {
			t.Errorf("non-positive timings: %+v", pt)
		}
	}
	// The warm-restart property: once distinct combinations are well
	// below the row count (the larger quick size), restoring the
	// snapshot beats deduplicating and re-indexing the raw rows. The
	// race detector skews the two paths differently, so the timing
	// claim is only checked on uninstrumented builds.
	if raceEnabled {
		return
	}
	last := rep.Series[len(rep.Series)-1]
	if last.RestoreNs >= last.RebuildNs {
		t.Errorf("n=%d: snapshot restore (%.0f ns) is not faster than a from-scratch rebuild (%.0f ns)",
			last.Rows, last.RestoreNs, last.RebuildNs)
	}
}

// TestReplicaBenchWritesJSON smokes the replication benchmark at toy
// scale: the report must decode, hold one point per delta size, carry
// a positive catch-up throughput, and show the headline property — a
// delta snapshot of a small batch is cheaper than a full image of the
// whole state, in both time and bytes.
func TestReplicaBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	rep := replicaBenchSmoke(t.TempDir())
	if len(rep.Series) != 2 {
		t.Fatalf("%d series points, want 2 (small and large delta)", len(rep.Series))
	}
	for _, pt := range rep.Series {
		if pt.BaseRows <= 0 || pt.DeltaRows <= 0 || pt.FullBytes <= 0 || pt.DeltaBytes <= 0 {
			t.Errorf("series point = %+v", pt)
		}
		if pt.FullWriteNs <= 0 || pt.DeltaWriteNs <= 0 {
			t.Errorf("non-positive timings: %+v", pt)
		}
	}
	if rep.CatchupRows <= 0 || rep.CatchupRowsPerSec <= 0 || rep.BoundedReadNs <= 0 {
		t.Errorf("catch-up section = %+v", rep)
	}
	if rep.SummaryDeltaRows != rep.Series[0].DeltaRows {
		t.Errorf("summary delta rows %d, want the smallest point %d", rep.SummaryDeltaRows, rep.Series[0].DeltaRows)
	}
	// The O(changes) property. The race detector skews both paths, so
	// the timing claim only runs uninstrumented; the size claim always
	// holds.
	small := rep.Series[0]
	if small.SizeRatio <= 1 {
		t.Errorf("delta of %d rows (%d bytes) not smaller than the full image (%d bytes)",
			small.DeltaRows, small.DeltaBytes, small.FullBytes)
	}
	if !raceEnabled && small.WriteSpeedup <= 1 {
		t.Errorf("delta write (%.0f ns) not faster than a full snapshot (%.0f ns)",
			small.DeltaWriteNs, small.FullWriteNs)
	}
}

// TestEngineBenchWritesJSON smokes the machine-readable benchmark
// runner at toy scale: the report must decode and hold one result per
// measured operation, each with a positive ns/op.
func TestEngineBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	engineBench(config{n: 5000, seed: 42, benchOut: out})
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep engineBenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if rep.DatasetRows != 5000 || rep.Dimensions != 13 || rep.Threshold != 5 {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.Results) != 6 {
		t.Fatalf("%d results, want 6", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("result %q has ns/op %v over %d iterations", r.Name, r.NsPerOp, r.Iterations)
		}
	}
}

// TestWALBenchWritesJSON smokes the group-commit benchmark at toy
// scale: the report must decode, hold one point per writer count with
// positive timings, and carry both lag distributions. The headline
// speedup and lag ratios are asserted only by `-check` on multi-core
// CI hosts — a loaded single-core test runner cannot pin them.
func TestWALBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runner takes seconds")
	}
	rep := walBenchSmoke(t.TempDir())
	if len(rep.Series) != 4 {
		t.Fatalf("%d series points, want 4 (writers 1/4/8/16)", len(rep.Series))
	}
	for i, want := range []int{1, 4, 8, 16} {
		pt := rep.Series[i]
		if pt.Writers != want {
			t.Errorf("series[%d].Writers = %d, want %d", i, pt.Writers, want)
		}
		if pt.PerRecordNs <= 0 || pt.GroupedNs <= 0 || pt.Appends <= 0 {
			t.Errorf("series point = %+v", pt)
		}
		if pt.AppendsPerSync < 1 {
			t.Errorf("writers=%d: %.2f appends per fsync, want >= 1", pt.Writers, pt.AppendsPerSync)
		}
	}
	if rep.SummarySpeedup8 != rep.Series[2].Speedup {
		t.Errorf("summary speedup %.2f, want the 8-writer point %.2f", rep.SummarySpeedup8, rep.Series[2].Speedup)
	}
	if rep.LagSamples <= 0 || rep.PolledLagP50Ms <= 0 || rep.StreamedLagP50Ms < 0 {
		t.Errorf("lag section = %+v", rep)
	}
	// The streamed path is commit-driven; even on a noisy runner its
	// median must beat a ticker that can only fire every 200 ms.
	if rep.StreamedLagP50Ms >= rep.PolledLagP50Ms {
		t.Errorf("streamed lag p50 %.2f ms not below polled p50 %.2f ms", rep.StreamedLagP50Ms, rep.PolledLagP50Ms)
	}
}
