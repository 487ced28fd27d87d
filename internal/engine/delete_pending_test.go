package engine

import (
	"math/rand"
	"testing"

	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// These tests pin Delete against rows living in the pending
// (uncompacted) delta: an append immediately followed by a delete,
// with no intervening query to fold the delta into the base oracle.
// The retraction must flow through the same signed delta entries and
// leave coverage, over-delete validation and cached MUP repair exactly
// as if the delta had been compacted first.

// TestDeletePendingDelta deletes rows straight out of the delta —
// both combos absent from the base and combos whose multiplicity
// spans base and delta.
func TestDeletePendingDelta(t *testing.T) {
	schema := testSchema(t, []int{2, 3})
	e := New(schema, Options{})

	// (0,0) ends up split across base and delta; (1,2) is delta-only.
	if err := e.Append([][]uint8{{0, 0}, {0, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	e.Oracle() // compact: the three rows become the base
	if err := e.Append([][]uint8{{0, 0}, {1, 2}, {1, 2}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DeltaDistinct == 0 {
		t.Fatal("precondition failed: delta unexpectedly empty")
	}

	// Delete immediately: 2×(0,0) spans base(2)+delta(1), 2×(1,2) is
	// delta-only.
	if err := e.Delete([][]uint8{{0, 0}, {0, 0}, {1, 2}, {1, 2}}); err != nil {
		t.Fatalf("delete of pending-delta rows: %v", err)
	}

	for _, tc := range []struct {
		p    pattern.Pattern
		want int64
	}{
		{pattern.Pattern{0, 0}, 1},
		{pattern.Pattern{1, 2}, 1},
		{pattern.Pattern{0, 1}, 1},
		{pattern.Pattern{0, pattern.Wildcard}, 2},
		{pattern.Pattern{pattern.Wildcard, 2}, 1},
		{pattern.Pattern{pattern.Wildcard, pattern.Wildcard}, 3},
	} {
		if got, err := e.Coverage(tc.p); err != nil || got != tc.want {
			t.Errorf("cov(%v) = %d (err %v), want %d", tc.p, got, err, tc.want)
		}
	}
	if got := e.Rows(); got != 3 {
		t.Errorf("rows = %d, want 3", got)
	}

	// Over-deleting a combo that only partially survives in the delta
	// must be rejected atomically.
	if err := e.Delete([][]uint8{{1, 2}, {1, 2}}); err == nil {
		t.Error("over-delete of delta-resident combo accepted")
	}
	if got, _ := e.Coverage(pattern.Pattern{1, 2}); got != 1 {
		t.Errorf("rejected over-delete mutated coverage: %d", got)
	}

	// Deleting a combination to zero straight out of the delta prunes
	// it everywhere, including the compacted base.
	if err := e.Delete([][]uint8{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Coverage(pattern.Pattern{1, 2}); got != 0 {
		t.Errorf("cov(1,2) after full retraction = %d, want 0", got)
	}
	if ix := e.Oracle(); ix.ComboCount([]uint8{1, 2}) != 0 {
		t.Error("fully retracted delta combo survived compaction as a ghost")
	}
}

// TestDeletePendingDeltaMUPRepair seeds the MUP cache, appends a
// gap-closing batch and immediately deletes part of it — the cached
// set must repair through the paired added/removed logs without a
// stale answer.
func TestDeletePendingDeltaMUPRepair(t *testing.T) {
	schema := testSchema(t, []int{2, 2})
	e := New(schema, Options{})
	if err := e.Append([][]uint8{{0, 0}, {0, 1}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.MUPs(mup.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != 1 || res.MUPs[0].Key() != (pattern.Pattern{1, 1}).Key() {
		t.Fatalf("MUPs = %v, want [(1,1)]", res.MUPs)
	}

	// Close the gap, then immediately reopen it by deleting the very
	// rows just appended (still in the delta), plus retract (0,1)
	// entirely — no query in between.
	if err := e.Append([][]uint8{{1, 1}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete([][]uint8{{1, 1}, {1, 1}, {0, 1}}); err != nil {
		t.Fatal(err)
	}

	res, err = e.MUPs(mup.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both value combos of race=1 are now empty, so their common
	// generalization X1 is the single maximal uncovered pattern. Check
	// the repaired cache against a from-scratch search on the same
	// data.
	ref, err := mup.PatternBreaker(e.Oracle(), mup.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) != len(ref.MUPs) {
		t.Fatalf("repaired MUPs = %v, fresh search = %v", res.MUPs, ref.MUPs)
	}
	for i := range ref.MUPs {
		if res.MUPs[i].Key() != ref.MUPs[i].Key() {
			t.Fatalf("repaired MUPs = %v, fresh search = %v", res.MUPs, ref.MUPs)
		}
	}
	if len(res.MUPs) != 1 || res.MUPs[0].Key() != (pattern.Pattern{pattern.Wildcard, 1}).Key() {
		t.Errorf("MUPs after append+delete in one delta = %v, want [X1]", res.MUPs)
	}
	if st := e.Stats(); st.BidirectionalRepairs != 1 {
		t.Errorf("bidirectional repairs = %d, want 1 (the delete must repair, not re-search)", st.BidirectionalRepairs)
	}
}

// TestDeletePendingDeltaWindow mixes the pending-delta delete with a
// sliding window: the tombstoned log entries must reconcile against
// rows that never reached the base.
func TestDeletePendingDeltaWindow(t *testing.T) {
	schema := testSchema(t, []int{2, 3})
	e := New(schema, Options{})
	e.SetWindow(4)
	if err := e.Append([][]uint8{{0, 0}, {0, 1}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
	// Delete the newest append immediately (delta-resident, window log
	// tombstoned).
	if err := e.Delete([][]uint8{{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", st.Tombstones)
	}
	// Fill past the window: eviction pops the live (0,0) and (0,1);
	// the (0,2) tombstone stays queued until eviction reaches it.
	if err := e.Append([][]uint8{{1, 0}, {1, 1}, {1, 2}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Rows(); got != 4 {
		t.Fatalf("rows = %d, want window bound 4", got)
	}
	for _, tc := range []struct {
		p    pattern.Pattern
		want int64
	}{
		{pattern.Pattern{0, 0}, 0},
		{pattern.Pattern{0, 1}, 0},
		{pattern.Pattern{0, 2}, 0},
		{pattern.Pattern{1, 0}, 2},
		{pattern.Pattern{1, pattern.Wildcard}, 4},
	} {
		if got, err := e.Coverage(tc.p); err != nil || got != tc.want {
			t.Errorf("cov(%v) = %d (err %v), want %d", tc.p, got, err, tc.want)
		}
	}
	// One more append reaches the tombstone: eviction consumes it for
	// free, then evicts one live row — the oldest (1,0) — for the
	// newcomer.
	if err := e.Append([][]uint8{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Coverage(pattern.Pattern{1, 0}); got != 1 {
		t.Errorf("cov(1,0) after eviction past the tombstone = %d, want 1", got)
	}
	if st := e.Stats(); st.Tombstones != 0 {
		t.Errorf("tombstones after reconciliation = %d, want 0", st.Tombstones)
	}
	if got := e.Rows(); got != 4 {
		t.Errorf("rows = %d after tombstone reconciliation, want 4", got)
	}
}

// TestPackedDeltaStraddlingKey checks the masked delta scan on a schema
// whose packed key straddles its two words: 18 hundred-value attributes
// fill 63 bits of each, and the last, three-valued one has one bit in
// each word. Pending deltas hold signed counts (deletes of base rows
// as well as appends), stay below the compaction threshold, and every
// answer of Coverage and CoverageBatch must equal a count over the live
// rows, patterns fixing the straddling attribute included.
func TestPackedDeltaStraddlingKey(t *testing.T) {
	cards := make([]int, 19)
	for i := range cards {
		cards[i] = 100
	}
	cards[18] = 3
	if b := pattern.KeyBits(cards); b != pattern.MaxKeyBits {
		t.Fatalf("KeyBits = %d, want %d", b, pattern.MaxKeyBits)
	}
	schema := testSchema(t, cards)
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(shards)))
		// Low codes only, skewed towards 0, so patterns match often.
		row := func() []uint8 {
			r := make([]uint8, len(cards))
			for j := range r {
				r[j] = uint8(min(rng.Intn(3), rng.Intn(3)))
			}
			return r
		}
		var live [][]uint8
		e := NewSharded(schema, shards, Options{})
		for i := 0; i < 2000; i++ {
			live = append(live, row())
		}
		if err := e.Append(live); err != nil {
			t.Fatal(err)
		}
		e.Oracle() // fold: the rows so far become the bases
		compactions := e.Stats().Compactions

		check := func(round int) {
			ps := []pattern.Pattern{pattern.All(len(cards))}
			for len(ps) < 120 {
				p := pattern.All(len(cards))
				src := live[rng.Intn(len(live))]
				for _, j := range rng.Perm(len(cards))[:1+rng.Intn(len(cards))] {
					p[j] = src[j]
				}
				if len(ps)%3 == 0 {
					p[18] = uint8(len(ps) / 3 % 3) // every code of the straddling field
				}
				ps = append(ps, p)
			}
			batch, err := e.CoverageBatch(ps)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range ps {
				var want int64
				for _, r := range live {
					if p.Matches(r) {
						want++
					}
				}
				got, err := e.Coverage(p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || batch[i] != want {
					t.Fatalf("shards=%d round %d: cov(%v) = %d, batch %d, live rows %d", shards, round, p, got, batch[i], want)
				}
			}
		}
		for round := 0; round < 6; round++ {
			var add [][]uint8
			for i := 0; i < 40; i++ {
				add = append(add, row())
			}
			if err := e.Append(add); err != nil {
				t.Fatal(err)
			}
			live = append(live, add...)
			var del [][]uint8
			for i := 0; i < 30; i++ { // mostly rows of the bases
				k := rng.Intn(len(live))
				del = append(del, live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := e.Delete(del); err != nil {
				t.Fatal(err)
			}
			check(round)
		}
		negative := false
		for _, c := range e.cores {
			for _, d := range c.delta {
				negative = negative || d.count < 0
			}
		}
		if st := e.Stats(); st.Compactions != compactions || st.DeltaDistinct == 0 || !negative {
			t.Fatalf("shards=%d: %d compactions since the fold, %d pending delta entries, a negative one: %v; want 0, > 0, true",
				shards, st.Compactions-compactions, st.DeltaDistinct, negative)
		}
	}
}
