package engine

import (
	"context"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/mup"
)

// countsOf flattens a state's per-shard count lists into one map, for
// tests that read multiplicities by key or compare states of different
// shard counts.
func countsOf(st *State) map[string]int64 {
	m := map[string]int64{}
	for _, list := range st.Counts {
		for _, kc := range list {
			m[kc.Key] = kc.Count
		}
	}
	return m
}

// assertStatesEqual compares two states whole, naming the diverging
// fields for readable failures. States of different shard counts
// compare their counts flattened.
func assertStatesEqual(t *testing.T, got, want *State) {
	t.Helper()
	g, w := *got, *want
	if len(g.Counts) != len(w.Counts) {
		if !maps.Equal(countsOf(&g), countsOf(&w)) {
			t.Errorf("counts diverge across %d and %d shards", len(g.Counts), len(w.Counts))
		}
		g.Counts, w.Counts = nil, nil
	}
	if reflect.DeepEqual(g, w) {
		return
	}
	if !reflect.DeepEqual(g.Counts, w.Counts) {
		t.Errorf("counts diverge: %v vs %v", g.Counts, w.Counts)
	}
	if g.Rows != w.Rows || g.Generation != w.Generation || g.Window != w.Window || g.Tombstones != w.Tombstones {
		t.Errorf("scalars diverge: rows %d/%d gen %d/%d window %d/%d tombstones %d/%d",
			g.Rows, w.Rows, g.Generation, w.Generation, g.Window, w.Window, g.Tombstones, w.Tombstones)
	}
	if !reflect.DeepEqual(g.WindowLog, w.WindowLog) {
		t.Errorf("window logs diverge: %d vs %d entries", len(g.WindowLog), len(w.WindowLog))
	}
	if !reflect.DeepEqual(g.PendingDeletes, w.PendingDeletes) {
		t.Errorf("pending deletes diverge: %v vs %v", g.PendingDeletes, w.PendingDeletes)
	}
	if !reflect.DeepEqual(g.Removed, w.Removed) {
		t.Errorf("removed logs diverge: %d vs %d recs", len(g.Removed.Recs), len(w.Removed.Recs))
	}
	if !reflect.DeepEqual(g.Added, w.Added) {
		t.Errorf("added logs diverge: %d vs %d recs", len(g.Added.Recs), len(w.Added.Recs))
	}
	if !reflect.DeepEqual(g.Cache, w.Cache) {
		t.Errorf("caches diverge: %d vs %d entries", len(g.Cache), len(w.Cache))
	}
	if !reflect.DeepEqual(g.Plans, w.Plans) {
		t.Errorf("plans diverge: %d vs %d entries", len(g.Plans), len(w.Plans))
	}
	if g.Counters != w.Counters {
		t.Errorf("counters diverge: %+v vs %+v", g.Counters, w.Counters)
	}
	t.Errorf("states diverge")
}

// assertEquivalent checks two engines answer queries identically:
// exported states match and a fresh MUP search agrees.
func assertEquivalent(t *testing.T, want, got *ShardedEngine) {
	t.Helper()
	assertStatesEqual(t, got.ExportState(), want.ExportState())
	w, err := want.MUPs(mup.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.MUPs(mup.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.MUPs) != len(g.MUPs) {
		t.Fatalf("restored engine finds %d MUPs, want %d", len(g.MUPs), len(w.MUPs))
	}
	for i := range w.MUPs {
		if !w.MUPs[i].Equal(g.MUPs[i]) {
			t.Fatalf("restored engine MUP %d = %v, want %v", i, g.MUPs[i], w.MUPs[i])
		}
	}
}

// TestDeltaCaptureApplyRoundTrip drives random mutations past a
// baseline and checks that baseline state + delta = current state,
// with and without a sliding window, including warmed MUP and plan
// caches, and that the applied state restores into an engine that
// answers queries identically.
func TestDeltaCaptureApplyRoundTrip(t *testing.T) {
	cards := []int{3, 4, 2, 3}
	schema := testSchema(t, cards)
	for _, windowed := range []bool{false, true} {
		t.Run(fmt.Sprintf("windowed=%v", windowed), func(t *testing.T) {
			e := NewSharded(schema, 2, Options{})
			rng := rand.New(rand.NewSource(41))
			if err := e.Append(randomRows(rng, cards, 120)); err != nil {
				t.Fatal(err)
			}
			if windowed {
				e.SetWindow(100)
			}
			if _, err := e.MUPs(mup.Options{Threshold: 4}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Plan(context.Background(), mup.Options{Threshold: 4}, PlanSpec{MaxLevel: 2}); err != nil {
				t.Fatal(err)
			}

			baseCapture := e.CaptureState()
			baseState := baseCapture.State()
			base := baseCapture.Baseline()

			// Mutations past the baseline: appends, deletes, and a
			// fresh MUP search (repairs the cached entry, so the delta
			// must carry its new payload while keeping the plan ref).
			for i := 0; i < 6; i++ {
				if err := e.Append(randomRows(rng, cards, 10+rng.Intn(20))); err != nil {
					t.Fatal(err)
				}
				if batch := drawDeletableEngine(rng, e, 1+rng.Intn(3)); len(batch) > 0 {
					if err := e.Delete(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := e.MUPs(mup.Options{Threshold: 4}); err != nil {
				t.Fatal(err)
			}

			d, next, ok := e.CaptureDelta(base)
			if !ok {
				t.Fatal("CaptureDelta reported not expressible")
			}
			if d.FromGeneration != baseState.Generation || d.Generation != e.Generation() {
				t.Fatalf("delta spans %d→%d, want %d→%d", d.FromGeneration, d.Generation, baseState.Generation, e.Generation())
			}
			if next.Generation != e.Generation() {
				t.Fatalf("next baseline at generation %d, want %d", next.Generation, e.Generation())
			}
			if len(d.Counts) == 0 {
				t.Fatal("delta carries no changed counts")
			}
			// Unwindowed, the touched-key set must stay well below the
			// full count map — the O(changes) property. (Windowed,
			// eviction legitimately churns most of a small map.)
			if distinct := len(countsOf(e.ExportState())); !windowed && len(d.Counts) >= distinct {
				t.Errorf("delta carries %d counts, the state holds %d — not O(changes)", len(d.Counts), distinct)
			}

			applied := baseState
			if err := d.Apply(applied); err != nil {
				t.Fatal(err)
			}
			assertStatesEqual(t, applied, e.ExportState())

			restored, err := NewFromState(applied, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, e, restored)
		})
	}
}

// TestDeltaChain layers several deltas and checks the final state
// matches, exercising the baseline hand-off between captures. The
// applied chain keeps one list per core of the live engine, so a
// restore at the same shard count builds every core straight from its
// list, and the restored engine exports the live engine's state whole.
func TestDeltaChain(t *testing.T) {
	cards := []int{3, 3, 2}
	schema := testSchema(t, cards)
	for _, shards := range []int{1, 3} {
		e := NewSharded(schema, shards, Options{})
		rng := rand.New(rand.NewSource(5))
		if err := e.Append(randomRows(rng, cards, 50)); err != nil {
			t.Fatal(err)
		}
		e.SetWindow(40)

		capture := e.CaptureState()
		st := capture.State()
		base := capture.Baseline()
		for link := 0; link < 5; link++ {
			if err := e.Append(randomRows(rng, cards, 5+rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
			if batch := drawDeletableEngine(rng, e, 2); len(batch) > 0 {
				if err := e.Delete(batch); err != nil {
					t.Fatal(err)
				}
			}
			d, next, ok := e.CaptureDelta(base)
			if !ok {
				t.Fatalf("shards=%d link %d not expressible", shards, link)
			}
			if err := d.Apply(st); err != nil {
				t.Fatalf("shards=%d link %d: %v", shards, link, err)
			}
			base = next
		}
		live := e.ExportState()
		assertStatesEqual(t, st, live)
		if len(st.Counts) != e.Shards() {
			t.Fatalf("applied chain holds %d count lists for %d shards", len(st.Counts), e.Shards())
		}
		restored, err := NewFromState(st, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.ExportState(); !reflect.DeepEqual(got, live) {
			assertStatesEqual(t, got, live)
			t.Fatalf("shards=%d: the restored chain exports another state than the live engine", shards)
		}
	}
}

// TestDeltaFallbacks enumerates the conditions under which a delta is
// not expressible and a full snapshot is required.
func TestDeltaFallbacks(t *testing.T) {
	cards := []int{3, 3, 2}
	schema := testSchema(t, cards)
	newSeeded := func() *Engine {
		e := NewSharded(schema, 1, Options{})
		rng := rand.New(rand.NewSource(9))
		if err := e.Append(randomRows(rng, cards, 30)); err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("nil baseline", func(t *testing.T) {
		e := newSeeded()
		if _, _, ok := e.CaptureDelta(nil); ok {
			t.Error("delta against nil baseline expressible")
		}
	})
	t.Run("future baseline", func(t *testing.T) {
		e := newSeeded()
		base := e.CaptureState().Baseline()
		base.Generation = e.Generation() + 10
		if _, _, ok := e.CaptureDelta(base); ok {
			t.Error("delta against future baseline expressible")
		}
	})
	t.Run("horizon passed baseline", func(t *testing.T) {
		e := NewSharded(schema, 1, Options{RemovedLogSize: 16})
		rng := rand.New(rand.NewSource(11))
		if err := e.Append(randomRows(rng, cards, 30)); err != nil {
			t.Fatal(err)
		}
		base := e.CaptureState().Baseline()
		// Drive enough single-row batches that the bounded mutation log
		// trims its tail past the baseline generation.
		for i := 0; e.added.horizon <= base.Generation; i++ {
			if i > 1000 {
				t.Fatal("mutation log never trimmed")
			}
			if err := e.Append(randomRows(rng, cards, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, ok := e.CaptureDelta(base); ok {
			t.Error("delta across a trimmed log expressible")
		}
	})
	t.Run("window epoch changed", func(t *testing.T) {
		e := newSeeded()
		base := e.CaptureState().Baseline()
		e.SetWindow(20) // creates the log: epoch bump
		if _, _, ok := e.CaptureDelta(base); ok {
			t.Error("delta across a window-log creation expressible")
		}
		base = e.CaptureState().Baseline()
		e.SetWindow(0) // drops the log: epoch bump
		if _, _, ok := e.CaptureDelta(base); ok {
			t.Error("delta across a window-log drop expressible")
		}
	})
	t.Run("window resize within epoch is expressible", func(t *testing.T) {
		e := newSeeded()
		e.SetWindow(25)
		capture := e.CaptureState()
		st := capture.State()
		base := capture.Baseline()
		e.SetWindow(15) // same log, evicts down to 15: no epoch bump
		d, _, ok := e.CaptureDelta(base)
		if !ok {
			t.Fatal("window resize not expressible as a delta")
		}
		if err := d.Apply(st); err != nil {
			t.Fatal(err)
		}
		assertStatesEqual(t, st, e.ExportState())
	})
}

// TestDeltaApplyRejectsMismatch checks Apply refuses — without
// mutating the state — every delta that does not chain onto it or is
// malformed: the wrong baseline generation, a negative count, a
// repeated or backward count key, a window drop longer than the log,
// and a kept cache or plan reference the state does not hold.
func TestDeltaApplyRejectsMismatch(t *testing.T) {
	cards := []int{3, 3, 2}
	schema := testSchema(t, cards)
	e := NewSharded(schema, 2, Options{})
	rng := rand.New(rand.NewSource(3))
	if err := e.Append(randomRows(rng, cards, 30)); err != nil {
		t.Fatal(err)
	}
	e.SetWindow(25)
	if _, err := e.MUPs(mup.Options{Threshold: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(context.Background(), mup.Options{Threshold: 2}, PlanSpec{MaxLevel: 2}); err != nil {
		t.Fatal(err)
	}
	capture := e.CaptureState()
	st := capture.State()
	base := capture.Baseline()
	pristine := e.ExportState()
	if err := e.Append(randomRows(rng, cards, 10)); err != nil {
		t.Fatal(err)
	}
	d, _, ok := e.CaptureDelta(base)
	if !ok {
		t.Fatal("delta not expressible")
	}
	if len(d.Counts) < 2 {
		t.Fatalf("precondition: the delta carries %d counts, want at least 2", len(d.Counts))
	}

	wrong := e.ExportState() // at the delta's END generation, not its start
	if err := d.Apply(wrong); err == nil {
		t.Fatal("delta applied onto the wrong generation")
	}
	if !reflect.DeepEqual(wrong, e.ExportState()) {
		t.Error("rejected apply mutated the state")
	}

	for _, tc := range []struct {
		name    string
		corrupt func(d *StateDelta)
	}{
		{"negative count", func(d *StateDelta) { d.Counts[1].Count = -1 }},
		{"repeated key", func(d *StateDelta) { d.Counts[1].Key = d.Counts[0].Key }},
		{"backward key", func(d *StateDelta) { d.Counts[0], d.Counts[1] = d.Counts[1], d.Counts[0] }},
		{"window drop past the log", func(d *StateDelta) { d.WindowDrop = len(st.WindowLog) + 1 }},
		{"kept search the state lacks", func(d *StateDelta) {
			d.CacheKept = append(slices.Clone(d.CacheKept), CachedSearchRef{Tau: 99, Gen: d.FromGeneration})
		}},
		{"kept plan the state lacks", func(d *StateDelta) {
			d.PlansKept = append(slices.Clone(d.PlansKept), CachedPlanRef{Tau: 99, MaxLevel: 1, Gen: d.FromGeneration})
		}},
	} {
		bad := *d
		bad.Counts = slices.Clone(d.Counts)
		tc.corrupt(&bad)
		if err := bad.Apply(st); err == nil {
			t.Errorf("%s: applied", tc.name)
		}
		if !reflect.DeepEqual(st, pristine) {
			t.Fatalf("%s: the refused apply mutated the state", tc.name)
		}
	}

	// The right state still applies.
	if err := d.Apply(st); err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, st, e.ExportState())
}

// TestWindowOrderByPageOccupancy pins the initial-window eviction order
// to the golden sequence captured at the commit before the dense and
// map layouts were deleted. SetWindow is a WAL-logged mutation, so a log
// written by that binary must replay to the same order: ascending
// key-space page occupancy (page 0 holds 12 live combos, page 2 holds
// 13, page 1 holds 15 — not the plain sorted order), whatever the shard
// count. That binary ordered schemas wider than 128 bits by plain sort;
// dataset.NewSchema refuses such schemas, so no log can hold one.
func TestWindowOrderByPageOccupancy(t *testing.T) {
	const want = "" +
		"00010100 01030100 01030100 01040200 010b0a00 03010a00 030d0a00 030d0a00 " +
		"060a0a00 07090b00 0c000000 0c050100 0c050100 0d000a00 0d0d0500 00050a02 " +
		"00050a02 010d0402 010d0502 05050102 05050102 06060702 07010c02 07090702 " +
		"09080302 09080302 0b0e0002 0c040302 0c0b0902 0d030402 0d0b0002 00010801 " +
		"00090b01 000e0201 03050e01 030d0101 050a0201 050a0201 070a0201 080c0101 " +
		"080c0101 09030901 090b0c01 0d050601 0d050601 0d080301 0d0a0d01 0e020101 " +
		"0e020101 0e020b01"
	cards := []int{15, 15, 15, 3}
	schema := testSchema(t, cards)
	rows := randomRows(rand.New(rand.NewSource(17)), cards, 40)
	rows = append(rows, rows[:10]...) // some multiplicities above one
	for _, shards := range []int{1, 3} {
		e := NewSharded(schema, shards, Options{})
		if err := e.Append(rows); err != nil {
			t.Fatal(err)
		}
		e.SetWindow(1000)
		log := e.ExportState().WindowLog
		got := make([]string, len(log))
		for i, k := range log {
			got[i] = hex.EncodeToString([]byte(k))
		}
		if g := strings.Join(got, " "); g != want {
			t.Errorf("shards=%d: eviction order\n got %s\nwant %s", shards, g, want)
		}
	}

	wide := make([]int, 17)
	for i := range wide {
		wide[i] = 200
	}
	if _, err := dataset.NewSchema(testAttrs(wide)); err == nil || !strings.Contains(err.Error(), "136-bit") {
		t.Fatalf("17 attributes of 200 values: NewSchema error %v, want one naming the 136-bit key", err)
	}
}

// TestWindowEvictionRemovedLogDeterministic: engines with one mutation
// history export one removed log. Each generation's records are
// exported in packed-key order, so the log (and every snapshot written
// from it) does not depend on where a count table placed the evicted
// combinations.
func TestWindowEvictionRemovedLogDeterministic(t *testing.T) {
	schema := testSchema(t, []int{2, 2, 2, 2})
	all := make([][]uint8, 16)
	for c := range all {
		all[c] = []uint8{uint8(c >> 3 & 1), uint8(c >> 2 & 1), uint8(c >> 1 & 1), uint8(c & 1)}
	}
	var first MutationLog
	for i := 0; i < 10; i++ {
		e := New(schema, Options{})
		e.SetWindow(16)
		for round := 0; round < 2; round++ {
			if err := e.Append(all); err != nil {
				t.Fatal(err)
			}
		}
		removed := e.ExportState().Removed
		if i == 0 {
			first = removed
			if len(first.Recs) != 16 {
				t.Fatalf("%d removed records, want one per evicted combination (16)", len(first.Recs))
			}
			continue
		}
		if !reflect.DeepEqual(removed, first) {
			t.Fatalf("engine %d exports a different removed log than engine 0:\n got %v\nwant %v", i, removed, first)
		}
	}
}
