package mup

import (
	"sync"
	"sync/atomic"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// countingOracle wraps an index.Oracle and counts every coverage
// computation issued through any of its probers — the probe meter the
// repair regressions pin. (The mup interface migration is what makes
// this wrapper possible: anything satisfying index.Oracle drops into
// the searches.)
type countingOracle struct {
	index.Oracle
	probes atomic.Int64
}

func (o *countingOracle) NewCoverageProber() index.CoverageProber {
	return &countingProber{inner: o.Oracle.NewCoverageProber(), counter: &o.probes}
}

type countingProber struct {
	inner   index.CoverageProber
	counter *atomic.Int64
}

func (p *countingProber) Coverage(q pattern.Pattern) int64 {
	p.counter.Add(1)
	return p.inner.Coverage(q)
}

func (p *countingProber) CoverageAtLeast(q pattern.Pattern, tau int64) int64 {
	p.counter.Add(1)
	return p.inner.CoverageAtLeast(q, tau)
}

func (p *countingProber) Probes() int64 { return p.inner.Probes() }

// probeFixture builds a dataset whose τ=2 MUP frontier is the value-2
// slices of a 3×3×3 cube (the 0/1 sub-cube is densely covered).
func probeFixture(t *testing.T) (*index.Index, *Result) {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Values: []string{"x", "y", "z"}},
		{Name: "b", Values: []string{"x", "y", "z"}},
		{Name: "c", Values: []string{"x", "y", "z"}},
	})
	counts := make(map[string]int64)
	for a := uint8(0); a < 2; a++ {
		for b := uint8(0); b < 2; b++ {
			for c := uint8(0); c < 2; c++ {
				counts[string([]uint8{a, b, c})] = 3
			}
		}
	}
	ix := index.BuildFromCounts(schema, counts)
	old, err := PatternBreaker(ix, Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.MUPs) == 0 || old.Cov == nil {
		t.Fatalf("fixture produced no MUPs or no Cov: %v / %v", old.MUPs, old.Cov)
	}
	return ix, old
}

// TestRepairSkipsUntouchedProbes pins the coverage-value cache at the
// mup layer with a counting-oracle wrapper: a repair whose added set
// touches no old MUP must issue zero probes against the big oracle,
// and a repair whose added set touches MUPs without covering them must
// still issue zero probes (their cov values are delta-updated).
// Dropping either the Cov cache or the added set degrades gracefully
// to one probe per seed — also pinned, so the baseline cannot silently
// regress.
func TestRepairSkipsUntouchedProbes(t *testing.T) {
	ix, old := probeFixture(t)
	opts := ParallelOptions{Options: Options{Threshold: 2}}

	// Mutation not matching any MUP: zero probes.
	co := &countingOracle{Oracle: ix}
	res, err := Repair(co, old, []Delta{{Combo: pattern.Pattern{0, 0, 0}, Count: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := co.probes.Load(); got != 0 {
		t.Errorf("untouched repair issued %d probes, want 0", got)
	}
	if len(res.MUPs) != len(old.MUPs) {
		t.Fatalf("untouched repair changed the MUP set: %d vs %d", len(res.MUPs), len(old.MUPs))
	}
	if err := VerifyResult(ix, 2, res); err != nil {
		t.Fatal(err)
	}

	// Mutation touching MUPs without covering them (one row of a
	// value-2 combination, τ=2): still zero probes — exact deltas
	// update the cached values.
	co = &countingOracle{Oracle: index.BuildFromCounts(ix.Schema(), comboCountsPlus(ix, []uint8{2, 0, 0}, 1))}
	res, err = Repair(co, old, []Delta{{Combo: pattern.Pattern{2, 0, 0}, Count: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := co.probes.Load(); got != 0 {
		t.Errorf("touched-but-uncovered repair issued %d probes, want 0 (delta-updated)", got)
	}
	if err := VerifyResult(co.Oracle, 2, res); err != nil {
		t.Fatal(err)
	}

	// Without the Cov cache, touched seeds must fall back to probing —
	// but untouched seeds still skip.
	bare := &Result{MUPs: old.MUPs}
	co = &countingOracle{Oracle: index.BuildFromCounts(ix.Schema(), comboCountsPlus(ix, []uint8{2, 0, 0}, 1))}
	if _, err := Repair(co, bare, []Delta{{Combo: pattern.Pattern{2, 0, 0}, Count: 1}}, opts); err != nil {
		t.Fatal(err)
	}
	touched := 0
	m := pattern.Pattern{2, 0, 0}
	for _, p := range old.MUPs {
		if p.Matches(m) {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("fixture: the mutation touches no MUP; the fallback case lost its point")
	}
	if got := co.probes.Load(); got == 0 || got > int64(2*touched) {
		t.Errorf("cov-less repair issued %d probes, want >0 and ≤ %d (touched seeds only)", got, 2*touched)
	}

	// With an unknown added set, every seed costs a probe.
	co = &countingOracle{Oracle: ix}
	if _, err := Repair(co, old, nil, opts); err != nil {
		t.Fatal(err)
	}
	if got := co.probes.Load(); got < int64(len(old.MUPs)) {
		t.Errorf("unknown-added repair issued %d probes for %d seeds, want ≥ one each", got, len(old.MUPs))
	}
}

// batchCountingOracle wraps an index.Oracle whose probers batch,
// counting both the individual coverage computations and the merged
// batch calls — the meter the per-level batching regression pins.
type batchCountingOracle struct {
	index.Oracle
	probes  atomic.Int64
	batches atomic.Int64

	mu     sync.Mutex
	probed []pattern.Pattern // every pattern asked, in no particular order
}

func (o *batchCountingOracle) record(ps ...pattern.Pattern) {
	o.probes.Add(int64(len(ps)))
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range ps {
		o.probed = append(o.probed, p.Clone())
	}
}

func (o *batchCountingOracle) NewCoverageProber() index.CoverageProber {
	return &batchCountingProber{inner: o.Oracle.NewCoverageProber().(index.BatchCoverageProber), o: o}
}

type batchCountingProber struct {
	inner index.BatchCoverageProber
	o     *batchCountingOracle
}

func (p *batchCountingProber) Coverage(q pattern.Pattern) int64 {
	p.o.record(q)
	return p.inner.Coverage(q)
}

func (p *batchCountingProber) CoverageAtLeast(q pattern.Pattern, tau int64) int64 {
	p.o.record(q)
	return p.inner.CoverageAtLeast(q, tau)
}

func (p *batchCountingProber) CoverageBatch(ps []pattern.Pattern, tau int64, out []int64) {
	p.o.record(ps...)
	p.o.batches.Add(1)
	p.inner.CoverageBatch(ps, tau, out)
}

func (p *batchCountingProber) Probes() int64 { return p.inner.Probes() }

// TestBreakerBatchesOncePerLevel pins the merged per-level probing of
// the level-synchronous descent: one batched call per lattice level
// with surviving candidates — no per-candidate fan-out — while the
// logical probe count (one per candidate probed) and the result stay
// exactly what the scalar path produced.
func TestBreakerBatchesOncePerLevel(t *testing.T) {
	ix, _ := probeFixture(t)

	// Scalar baseline: a wrapper whose probers hide the batch
	// interface, forcing CoverageAll onto the per-pattern loop.
	scalar := &countingOracle{Oracle: ix}
	want, err := PatternBreaker(scalar, Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}

	bo := &batchCountingOracle{Oracle: ix}
	got, err := PatternBreaker(bo, Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MUPs) != len(want.MUPs) {
		t.Fatalf("batched breaker found %d MUPs, scalar %d", len(got.MUPs), len(want.MUPs))
	}
	for i := range want.MUPs {
		if !want.MUPs[i].Equal(got.MUPs[i]) || want.Cov[i] != got.Cov[i] {
			t.Fatalf("MUPs[%d] = %v cov %d batched, %v cov %d scalar",
				i, got.MUPs[i], got.Cov[i], want.MUPs[i], want.Cov[i])
		}
	}
	if bo.probes.Load() != scalar.probes.Load() {
		t.Errorf("batched path issued %d logical probes, scalar %d — the cost metric diverged",
			bo.probes.Load(), scalar.probes.Load())
	}
	if got.Stats.CoverageProbes != want.Stats.CoverageProbes {
		t.Errorf("reported CoverageProbes = %d batched, %d scalar", got.Stats.CoverageProbes, want.Stats.CoverageProbes)
	}
	// The 3×3×3 fixture descends through all four levels with live
	// candidates on each: exactly one merged batch per level.
	if b := bo.batches.Load(); b != 4 {
		t.Errorf("sequential breaker issued %d batch calls, want 4 (one per level)", b)
	}

	// The parallel breaker batches once per worker chunk per level —
	// with one worker that is again one batch per level, and the
	// logical probe count must not depend on batching or workers.
	bo1 := &batchCountingOracle{Oracle: ix}
	pres, err := ParallelPatternBreaker(bo1, ParallelOptions{Options: Options{Threshold: 2}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.MUPs) != len(want.MUPs) {
		t.Fatalf("parallel breaker found %d MUPs, want %d", len(pres.MUPs), len(want.MUPs))
	}
	if b := bo1.batches.Load(); b != 4 {
		t.Errorf("1-worker parallel breaker issued %d batch calls, want 4", b)
	}
	bo4 := &batchCountingOracle{Oracle: ix}
	pres4, err := ParallelPatternBreaker(bo4, ParallelOptions{Options: Options{Threshold: 2}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres4.MUPs) != len(want.MUPs) {
		t.Fatalf("4-worker parallel breaker found %d MUPs, want %d", len(pres4.MUPs), len(want.MUPs))
	}
	if bo4.probes.Load() != scalar.probes.Load() {
		t.Errorf("4-worker batched path issued %d logical probes, scalar %d", bo4.probes.Load(), scalar.probes.Load())
	}
	// At most workers batch calls per level; never per-candidate.
	if b := bo4.batches.Load(); b < 4 || b > 16 {
		t.Errorf("4-worker parallel breaker issued %d batch calls, want between 4 and 16", b)
	}
}

// comboCountsPlus copies the oracle's combo counts with one
// combination incremented.
func comboCountsPlus(ix *index.Index, combo []uint8, n int64) map[string]int64 {
	counts := make(map[string]int64, ix.NumDistinct()+1)
	ix.Range(func(k []uint8, c int64) { counts[string(k)] = c })
	counts[string(combo)] += n
	return counts
}

// TestRepairBidirectionalBatchesPerLevel pins the oracle traffic of
// the bidirectional repair. A pure-deletion repair with exact deltas
// and cached coverage values issues no probe and no batch at all: the
// newly uncovered MUPs come from the ancestor cube of each removed
// combination (a MatchHistogram pass, not probes), the seeds' coverage
// from arithmetic and their maximality from the dominance indexes. A
// mixed add+delete repair probes only under the seeds an append
// lifted, in merged CoverageAll batches — never one oracle fan-out per
// pattern — and the same patterns whatever the worker count.
func TestRepairBidirectionalBatchesPerLevel(t *testing.T) {
	ix, old := probeFixture(t)
	opts := ParallelOptions{Options: Options{Threshold: 2}, Workers: 1}
	retracted := []Delta{{Combo: pattern.Pattern{0, 0, 0}, Count: -3}}

	// Retract every row of one covered combination: the cube pass must
	// find the newly uncovered {0,0,0}.
	after := index.BuildFromCounts(ix.Schema(), comboCountsPlus(ix, []uint8{0, 0, 0}, -3))
	bo := &batchCountingOracle{Oracle: after}
	res, err := RepairBidirectional(bo, old, retracted, []Delta{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyResult(after, 2, res); err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != len(old.MUPs)+1 {
		t.Fatalf("full retraction found %d MUPs, want %d (old set plus {0,0,0})", len(res.MUPs), len(old.MUPs)+1)
	}
	if b, n := bo.batches.Load(), bo.probes.Load(); b != 0 || n != 0 || res.Stats.CoverageProbes != 0 {
		t.Errorf("pure-deletion repair issued %d probes in %d batches (reports %d), want none", n, b, res.Stats.CoverageProbes)
	}
	// One removed combination is one 2^3-cell cube, plus the seeds.
	if want := int64(8 + len(old.MUPs)); res.Stats.NodesVisited != want {
		t.Errorf("pure-deletion repair visited %d nodes, want %d (8 cube cells + %d seeds)", res.Stats.NodesVisited, want, len(old.MUPs))
	}

	// No mutations at all: no cube, no probe, no empty batch.
	bo = &batchCountingOracle{Oracle: ix}
	res, err = RepairBidirectional(bo, old, []Delta{}, []Delta{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyResult(ix, 2, res); err != nil {
		t.Fatal(err)
	}
	if b, n := bo.batches.Load(), bo.probes.Load(); b != 0 || n != 0 {
		t.Errorf("no-op repair issued %d probes in %d batches, want none", n, b)
	}

	// Mixed: the same retraction plus two rows of {2,0,0}, which lift
	// the old MUP 2XX to τ. Its subtree is re-expanded (the new MUPs are
	// 21X and 2X1) and every probe falls on 2XX or below.
	lifted := pattern.Pattern{2, pattern.Wildcard, pattern.Wildcard}
	counts := comboCountsPlus(ix, []uint8{0, 0, 0}, -3)
	counts[string([]uint8{2, 0, 0})] += 2
	after = index.BuildFromCounts(ix.Schema(), counts)
	appended := []Delta{{Combo: pattern.Pattern{2, 0, 0}, Count: 2}}
	var probes [2]int64
	for i, workers := range []int{1, 4} {
		bo = &batchCountingOracle{Oracle: after}
		opts.Workers = workers
		res, err = RepairBidirectional(bo, old, retracted, appended, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyResult(after, 2, res); err != nil {
			t.Fatal(err)
		}
		if got := keys(res.MUPs); len(got) != 5 {
			t.Fatalf("mixed repair found %v, want 5 MUPs (X2X, XX2, 21X, 2X1, 000)", got)
		}
		for _, q := range bo.probed {
			if !lifted.Dominates(q) {
				t.Errorf("workers=%d: mixed repair probed %v, which is not under the lifted seed %v", workers, q, lifted)
			}
		}
		probes[i] = bo.probes.Load()
		if probes[i] == 0 || probes[i] != res.Stats.CoverageProbes {
			t.Errorf("workers=%d: %d probes counted, %d reported, want equal and non-zero", workers, probes[i], res.Stats.CoverageProbes)
		}
		// Three waves (the seeds, 2XX's children, their children) of at
		// most three merged batches per worker.
		if b := bo.batches.Load(); b == 0 || b > int64(9*workers) {
			t.Errorf("workers=%d: %d merged batches, want between 1 and %d", workers, b, 9*workers)
		}
	}
	if probes[0] != probes[1] {
		t.Errorf("mixed repair issued %d probes with 1 worker and %d with 4, want the same", probes[0], probes[1])
	}
}

// TestRepairBidirectionalDeltaProbes pins how the probe count degrades
// with what the caller knows, the bidirectional analog of
// TestRepairSkipsUntouchedProbes. The cube pass needs neither the old
// coverage values nor a known added set, so the newly uncovered MUP
// costs no probe in any of the cases; only the surviving seeds do.
func TestRepairBidirectionalDeltaProbes(t *testing.T) {
	ix, old := probeFixture(t)
	opts := ParallelOptions{Options: Options{Threshold: 2}}
	combo := pattern.Pattern{0, 0, 0}

	// Retract two of the three rows of a covered combination: {0,0,0}
	// falls to 1 < τ while its parents stay covered.
	after := index.BuildFromCounts(ix.Schema(), comboCountsPlus(ix, combo, -2))
	repair := func(old *Result, removed, added []Delta) (*Result, int64) {
		t.Helper()
		co := &countingOracle{Oracle: after}
		res, err := RepairBidirectional(co, old, removed, added, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyResult(after, 2, res); err != nil {
			t.Fatal(err)
		}
		if len(res.MUPs) != len(old.MUPs)+1 {
			t.Fatalf("repair found %d MUPs, want %d (old set plus %v)", len(res.MUPs), len(old.MUPs)+1, combo)
		}
		return res, co.probes.Load()
	}

	// Exact deltas and Cov: nothing to ask the oracle.
	res, got := repair(old, []Delta{{Combo: combo, Count: -2}}, []Delta{})
	if got != 0 {
		t.Errorf("exact single-delete repair issued %d probes, want 0", got)
	}
	if res.Cov == nil {
		t.Error("exact single-delete repair dropped Cov")
	}

	// A delta without a magnitude is not a net change: refused.
	if _, err := RepairBidirectional(after, old, []Delta{{Combo: combo}}, []Delta{}, opts); err == nil {
		t.Error("repair accepted a removed delta with count 0")
	}

	// Without the Cov cache there is nothing to keep exact: no probes,
	// and no Cov in the result.
	res, got = repair(&Result{MUPs: old.MUPs}, []Delta{{Combo: combo, Count: -2}}, []Delta{})
	if got != 0 {
		t.Errorf("cov-less repair issued %d probes, want 0", got)
	}
	if res.Cov != nil {
		t.Errorf("cov-less repair invented Cov %v", res.Cov)
	}

	// With an unknown added set every seed may have been lifted and
	// costs a probe.
	if _, got = repair(old, []Delta{{Combo: combo, Count: -2}}, nil); got < int64(len(old.MUPs)) {
		t.Errorf("unknown-added repair issued %d probes for %d seeds, want ≥ one each", got, len(old.MUPs))
	}
}
