package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON holds the file the driver reads and the
// names the program prints together.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run ./benchmark spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it should move", m.Name)
		}
	}
}

// TestTailPercentileRule pins the ten-beyond rule: a percentile is
// reported only with at least ten samples above it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		if got, ok := tailPercentile(c.n); got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := tailOrZero(xs[:99], 90); got != 0 {
		t.Errorf("p90 of 99 samples = %v, want 0 (nine samples beyond it)", got)
	}
}

// TestBlockRate pins the throughput estimate: blocks of equal count
// timed from the previous block's last completion, median block
// reported, so a stall costs the blocks it falls in and not the run.
func TestBlockRate(t *testing.T) {
	// 48 operations, one every 0.5 s from t=10, except that the host
	// stalls for 30 s before operation 20.
	var at []float64
	now := 10.0
	for i := 0; i < 48; i++ {
		now += 0.5
		if i == 20 {
			now += 30
		}
		at = append(at, now)
	}
	if got := blockRate(at, 10); math.Abs(got-2) > 1e-9 {
		t.Errorf("blockRate with one stalled block = %v, want 2", got)
	}
	// Fewer operations than blocks: every operation is its own block.
	if got := blockRate([]float64{12, 14, 17}, 10); got != 0.5 {
		t.Errorf("blockRate of three operations = %v, want 0.5", got)
	}
}

// TestRecorderAfter pins the warm-up cut: operations completed by the
// cut are dropped from every kind, bulk row counts with their loads.
func TestRecorderAfter(t *testing.T) {
	r := newRecorder()
	r.ms["append"], r.at["append"] = []float64{1, 2, 3}, []float64{0.5, 1.0, 1.5}
	r.ms["bulk"], r.at["bulk"] = []float64{10, 20}, []float64{0.9, 1.1}
	r.bulkRows = []float64{100, 200}
	got := r.after(1.0)
	if len(got.ms["append"]) != 1 || got.ms["append"][0] != 3 || got.at["append"][0] != 1.5 {
		t.Errorf("appends after the cut = %v at %v", got.ms["append"], got.at["append"])
	}
	if len(got.ms["bulk"]) != 1 || got.ms["bulk"][0] != 20 || len(got.bulkRows) != 1 || got.bulkRows[0] != 200 {
		t.Errorf("bulk loads after the cut = %v carrying %v rows", got.ms["bulk"], got.bulkRows)
	}
}

// TestSelfTimes pins the span arithmetic: self time is duration minus
// direct children, a twin is charged by duration although it ran
// outside its parent, and a slow twin cannot make self time negative.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "op.append", Parent: -1, Start: 0, End: 100},
		{Op: 1, Name: "registry.acquire", Parent: 0, Start: 5, End: 15},
		{Op: 1, Name: "persist.append", Parent: 0, Start: 20, End: 90},
		{Op: 1, Name: "engine.append", Parent: 2, Start: 120, End: 150, Twin: true},
		{Op: 2, Name: "op.mups", Parent: -1, Start: 200, End: 260},
		{Op: 2, Name: "coverage.find_mups", Parent: 4, Start: 210, End: 250},
		{Op: 2, Name: "mup.repair", Parent: 5, Start: 300, End: 390, Twin: true},
	}
	want := []int64{20, 10, 40, 30, 20, 0, 90}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	ts := summarize(spans)
	if len(ts.ops["append"]) != 1 || len(ts.ops["mups_repair"]) != 1 {
		t.Fatalf("operations by kind = %v", ts.ops)
	}
	a := ts.ops["append"][0]
	if a.layer["persist"] != 40e-6 || a.layer["engine"] != 30e-6 || a.layer["registry"] != 10e-6 {
		t.Errorf("append breakdown = %v", a.layer)
	}
	bs := budgets(samples{"append": {1}}, ts)
	if len(bs) != 1 || !strings.Contains(bs[0].String(), "remainder") {
		t.Fatalf("budgets = %v", bs)
	}
	// 1 ms seen over HTTP, 100 ns in process, 80 ns of it in layers.
	if math.Abs(bs[0].Remainder-20e-6) > 1e-12 {
		t.Errorf("remainder = %v ms, want 20e-6", bs[0].Remainder)
	}
}

// TestQuartiles pins compare's spread to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of {1,3} = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := cell{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   cell
		better string
		want   string
	}{
		{"unchanged", steady, cell{100, 102, 98, 101, 100}, "lower", "ok"},
		{"slower", steady, cell{112, 111, 113, 112, 112}, "lower", "regressed"},
		{"less throughput", steady, cell{88, 89, 87, 88, 88}, "higher", "regressed"},
		{"more throughput", steady, cell{120, 121, 119, 120, 120}, "higher", "ok"},
		{"noisy", steady, cell{70, 130, 100, 60, 140}, "lower", "unresolved"},
		{"noisy but every run better", steady, cell{40, 80, 50, 90, 60}, "lower", "ok"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestScaledDownPass runs every workload end to end at a fiftieth of
// its size with fixed operation counts: untraced over HTTP against a
// real covserve subprocess, then traced — over HTTP again and in
// process with spans. Every named metric must be present and finite,
// nothing may fail, the budget must be printed, and the counters that
// depend only on the operation sequence must be identical in the two
// halves of the traced run, which execute the same seed's sequence.
func TestScaledDownPass(t *testing.T) {
	if testing.Short() {
		t.Skip("boots covserve subprocesses")
	}
	ops := map[string]int{"ingest": 60, "probe": 64, "refresh": 2, "audit": 1}
	// With one client the WAL and the search paths see a fixed sequence;
	// with two, group commit coalesces by timing, so the WAL counters
	// may differ between runs.
	exact := map[string][]string{
		"ingest":  {"engine.full_searches", "engine.incremental_repairs", "mup.probes"},
		"probe":   {"engine.full_searches", "engine.incremental_repairs", "mup.probes"},
		"refresh": {"engine.full_searches", "engine.incremental_repairs", "mup.probes", "persist.wal_records"},
		"audit":   {"engine.full_searches", "engine.incremental_repairs", "mup.probes", "persist.wal_records"},
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{
				workload: spec.name, seed: 7, setups: 1,
				sz:       sizing{ops: ops[spec.name], scale: 0.02},
				buildDir: filepath.Join(dir, "build"), outDir: filepath.Join(dir, "out"),
			}
			run := func(trace bool, specs []metricSpec) (*runFile, string) {
				cfg.trace = trace
				var out bytes.Buffer
				res, err := runOne(cfg, spec, &out)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace=%v: %d metrics reported, %d declared", trace, len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					v, ok := res.Metrics[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v (present %v)", trace, m.Name, v, ok)
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(specs) {
					t.Errorf("trace=%v: the last line of output is not the result object: %v", trace, err)
				}
				return res, out.String()
			}
			e2e, _ := run(false, endToEnd)
			for _, m := range endToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			traced, printed := run(true, perLayer)
			if !strings.Contains(printed, "budget "+spec.budget) || !strings.Contains(printed, "remainder") {
				t.Errorf("no budget line for %s in:\n%s", spec.budget, printed)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+spec.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			for _, name := range exact[spec.name] {
				if a, b := traced.Metrics[name].Value, traced.InProcess[name]; a != b {
					t.Errorf("%s: %v over HTTP, %v in process, for the same seed's operation sequence", name, a, b)
				}
			}
			runs, err := readRuns(resultsPath(cfg.outDir))
			if err != nil || len(runs) != 1 || runs[0].Host.GoVersion == "" || runs[0].Host.NProc < 1 {
				t.Errorf("results file: %d untraced runs, err %v", len(runs), err)
			}
			left, _ := filepath.Glob(filepath.Join(cfg.buildDir, "data-*"))
			if len(left) != 0 {
				t.Errorf("data directories left behind: %v", left)
			}
		})
	}
}
