package engine

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/mup"
)

// normalizeState strips the restore-acceleration key lists (a delta
// apply invalidates them by design) so states can be compared by
// semantic content.
func normalizeState(st *State) *State {
	c := *st
	c.CountKeys = nil
	c.ShardCountKeys = nil
	return &c
}

// assertStatesEqual compares two states field by field for readable
// failures.
func assertStatesEqual(t *testing.T, got, want *State) {
	t.Helper()
	g, w := normalizeState(got), normalizeState(want)
	if !reflect.DeepEqual(g.Counts, w.Counts) {
		t.Errorf("counts diverge: %d vs %d entries", len(g.Counts), len(w.Counts))
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
			if !windowed && len(d.Counts) >= len(e.ExportState().Counts) {
				t.Errorf("delta carries %d counts, full map holds %d — not O(changes)",
					len(d.Counts), len(e.ExportState().Counts))
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
// matches, exercising the baseline hand-off between captures.
func TestDeltaChain(t *testing.T) {
	cards := []int{3, 3, 2}
	schema := testSchema(t, cards)
	e := NewSharded(schema, 1, Options{})
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
		d, next, ok := e.CaptureDelta(base)
		if !ok {
			t.Fatalf("link %d not expressible", link)
		}
		if err := d.Apply(st); err != nil {
			t.Fatalf("link %d: %v", link, err)
		}
		base = next
	}
	assertStatesEqual(t, st, e.ExportState())
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
// mutating the state — when the delta does not chain.
func TestDeltaApplyRejectsMismatch(t *testing.T) {
	cards := []int{3, 3, 2}
	schema := testSchema(t, cards)
	e := NewSharded(schema, 1, Options{})
	rng := rand.New(rand.NewSource(3))
	if err := e.Append(randomRows(rng, cards, 30)); err != nil {
		t.Fatal(err)
	}
	capture := e.CaptureState()
	st := capture.State()
	base := capture.Baseline()
	if err := e.Append(randomRows(rng, cards, 10)); err != nil {
		t.Fatal(err)
	}
	d, _, ok := e.CaptureDelta(base)
	if !ok {
		t.Fatal("delta not expressible")
	}

	wrong := e.ExportState() // at the delta's END generation, not its start
	before := normalizeState(wrong)
	beforeCounts := len(before.Counts)
	if err := d.Apply(wrong); err == nil {
		t.Fatal("delta applied onto the wrong generation")
	}
	if len(wrong.Counts) != beforeCounts || wrong.Generation != d.Generation {
		t.Error("rejected apply mutated the state")
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
		log := e.log.keys[e.log.head:]
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
// history export one removed log. Eviction records the combinations it
// retracts in the order it first popped them, so the log (and every
// snapshot written from it) does not depend on map iteration order.
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
