package persist

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"coverage/internal/engine"
	"coverage/internal/enhance"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// planfulEngine builds a mutated engine whose plan cache is populated
// (two configurations, one of them weighted).
func planfulEngine(t testing.TB, seed int64, ops int) *engine.Engine {
	t.Helper()
	eng := mutatedEngine(t, seed, ops)
	ctx := context.Background()
	if _, err := eng.Plan(ctx, mup.Options{Threshold: 2}, engine.PlanSpec{MaxLevel: 2}); err != nil {
		t.Fatal(err)
	}
	cost := enhance.UniformCost(eng.Cards())
	if _, err := eng.Plan(ctx, mup.Options{Threshold: 3}, engine.PlanSpec{MinValueCount: 4, Cost: cost}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSnapshotCarriesPlanCache pins the v3 sections: cached plans
// survive snapshot→restore (warm /plan after a covserve restart), the
// restored engine answers the same configurations as hits, and the
// round trip is a byte-level fixed point.
func TestSnapshotCarriesPlanCache(t *testing.T) {
	src := planfulEngine(t, 23, 80)
	srcStats := src.Stats()
	if srcStats.CachedPlans != 2 {
		t.Fatalf("fixture cached %d plans, want 2", srcStats.CachedPlans)
	}

	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, src.ExportState()); err != nil {
		t.Fatal(err)
	}
	st, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Plans) != 2 {
		t.Fatalf("decoded %d cached plans, want 2", len(st.Plans))
	}
	restored, err := engine.NewFromState(st, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Byte-level fixed point — checked before anything queries either
	// engine, because queries legitimately advance cache contents and
	// the persisted hit counters.
	var buf2 bytes.Buffer
	if _, err := WriteSnapshot(&buf2, restored.ExportState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("snapshot→restore→snapshot with cached plans is not a fixed point")
	}

	assertEquivalent(t, src, restored)
	rs := restored.Stats()
	if rs.CachedPlans != 2 {
		t.Fatalf("restored cached plans = %d, want 2", rs.CachedPlans)
	}
	if rs.PlanBuilds != srcStats.PlanBuilds || rs.PlanProbes != srcStats.PlanProbes {
		t.Errorf("plan counters not preserved: %+v vs %+v", rs, srcStats)
	}

	// The restored engine serves the same configuration from cache.
	before := restored.Stats().PlanHits
	p, err := restored.Plan(context.Background(), mup.Options{Threshold: 2}, engine.PlanSpec{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats().PlanHits != before+1 {
		t.Error("restored plan configuration missed the cache")
	}
	orig, err := src.Plan(context.Background(), mup.Options{Threshold: 2}, engine.PlanSpec{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Suggestions) != len(orig.Suggestions) {
		t.Errorf("restored plan has %d suggestions, original %d", len(p.Suggestions), len(orig.Suggestions))
	}
}

// encodeStateV3WithBasis replicates the v3 payload as it was written
// while cached plans carried the MUP set their targets were expanded
// from: everything before the plan section as encodeState writes it,
// then the plan section with basis(p) in each entry's basis slot, then
// the plan counters. It exists only here, as the fixture generator
// proving the current reader still accepts such snapshots.
func encodeStateV3WithBasis(st *engine.State, basis func(engine.CachedPlan) []pattern.Pattern) []byte {
	// Without plans and plan counters, encodeState ends in an empty plan
	// section and five zero counters: six zero bytes to cut.
	bare := *st
	bare.Plans = nil
	bare.Counters.PlanProbes, bare.Counters.PlanHits, bare.Counters.PlanBuilds = 0, 0, 0
	bare.Counters.PlanRepairs, bare.Counters.PlanRebuilds = 0, 0
	head := encodeState(&bare)
	e := &encoder{buf: head[:len(head)-6]}
	e.uvarint(uint64(len(st.Plans)))
	for _, p := range st.Plans {
		e.varint(p.Tau)
		e.uvarint(uint64(p.MUPMaxLevel))
		e.uvarint(uint64(p.MaxLevel))
		e.uvarint(p.MinValueCount)
		e.str(p.OracleFP)
		e.str(p.CostFP)
		e.uvarint(p.Gen)
		for _, set := range [][]pattern.Pattern{basis(p), p.Targets} {
			e.uvarint(uint64(len(set)))
			for _, m := range set {
				e.raw(m)
			}
		}
		e.str(p.Algorithm)
		e.varint(int64(p.Iterations))
		e.varint(0)
		e.uvarint(uint64(len(p.Suggestions)))
		for _, s := range p.Suggestions {
			e.raw(s.Combo)
			e.raw(s.Collect)
			e.uvarint(uint64(len(s.Hits)))
			for _, h := range s.Hits {
				e.uvarint(uint64(h))
			}
			e.uvarint(math.Float64bits(s.Cost))
		}
	}
	for _, c := range []int64{
		st.Counters.PlanProbes, st.Counters.PlanHits, st.Counters.PlanBuilds,
		st.Counters.PlanRepairs, st.Counters.PlanRebuilds,
	} {
		e.varint(c)
	}
	return e.buf
}

// TestReadV3SnapshotWithPlanBasis: a v3 snapshot whose plans carry a
// non-empty MUP basis restores with the basis dropped. Each restored
// plan answers its own generation as a cache hit with the writer's
// suggestions, and the restored state re-encodes exactly as the
// writer's state does today.
func TestReadV3SnapshotWithPlanBasis(t *testing.T) {
	src := planfulEngine(t, 23, 80)
	st := src.ExportState()
	basis := func(p engine.CachedPlan) []pattern.Pattern {
		for _, c := range st.Cache {
			if c.Tau == p.Tau && c.MaxLevel == p.MUPMaxLevel && c.Gen == p.Gen {
				return c.MUPs
			}
		}
		t.Fatalf("no cached search behind plan %+v", p)
		return nil
	}
	withBasis := 0
	for _, p := range st.Plans {
		if len(basis(p)) > 0 {
			withBasis++
		}
	}
	if withBasis != len(st.Plans) || withBasis == 0 {
		t.Fatalf("%d of %d plans have a non-empty basis, want all", withBasis, len(st.Plans))
	}
	fixture := reframe(encodeStateV3WithBasis(st, basis))
	var current bytes.Buffer
	if _, err := WriteSnapshot(&current, st); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fixture, current.Bytes()) {
		t.Fatal("fixture carries no basis")
	}

	got, err := ReadSnapshot(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("reading a v3 snapshot with plan bases: %v", err)
	}
	restored, err := engine.NewFromState(got, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := WriteSnapshot(&again, restored.ExportState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), current.Bytes()) {
		t.Error("restored state does not re-encode as the writer's state")
	}

	ctx := context.Background()
	for _, q := range []struct {
		mopts mup.Options
		spec  engine.PlanSpec
	}{
		{mup.Options{Threshold: 2}, engine.PlanSpec{MaxLevel: 2}},
		{mup.Options{Threshold: 3}, engine.PlanSpec{MinValueCount: 4, Cost: enhance.UniformCost(src.Cards())}},
	} {
		hits := restored.Stats().PlanHits
		p, err := restored.Plan(ctx, q.mopts, q.spec)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Stats().PlanHits != hits+1 {
			t.Errorf("%+v: restored plan missed the cache", q.spec)
		}
		want, err := src.Plan(ctx, q.mopts, q.spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Suggestions) != len(want.Suggestions) {
			t.Fatalf("%+v: %d suggestions, want %d", q.spec, len(p.Suggestions), len(want.Suggestions))
		}
		for i, s := range p.Suggestions {
			w := want.Suggestions[i]
			if !bytes.Equal(s.Combo, w.Combo) || !s.Collect.Equal(w.Collect) || !slices.Equal(s.Hits, w.Hits) || s.Cost != w.Cost {
				t.Errorf("%+v: suggestion %d = %+v, want %+v", q.spec, i, s, w)
			}
		}
	}
}

// TestSnapshotRejectsCorruptPlanSection extends the corruption suite
// to the v3 sections: a plan entry whose suggestion hits index outside
// its target list must fail restore whole.
func TestSnapshotRejectsCorruptPlanSection(t *testing.T) {
	src := planfulEngine(t, 29, 60)
	st := src.ExportState()
	found := false
	for i := range st.Plans {
		if len(st.Plans[i].Suggestions) > 0 {
			st.Plans[i].Suggestions[0].Hits = []int{len(st.Plans[i].Targets) + 5}
			found = true
			break
		}
	}
	if !found {
		t.Skip("fixture produced no suggestions to corrupt")
	}
	if _, err := engine.NewFromState(st, engine.Options{}); err == nil {
		t.Error("out-of-range suggestion hit accepted")
	}
}
