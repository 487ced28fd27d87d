package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coverage/internal/index"
	"coverage/internal/pattern"
)

// TestStatsDistinctCountsDeltaResident pins the /stats accounting fix:
// with compaction suppressed, distinct combinations appended after the
// last base rebuild live only in the deltas, and Stats.Distinct (total
// and per shard) must still count them — and must drop combinations
// whose multiplicity has fallen back to zero, which the old
// base-NumDistinct sum kept as ghosts.
func TestStatsDistinctCountsDeltaResident(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cards := []int{4, 4, 4}
			schema := testSchema(t, cards)
			// Thresholds high enough that nothing compacts during the test.
			e := NewSharded(schema, shards, Options{CompactMinDistinct: 1 << 20})
			if err := e.Append([][]uint8{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {0, 0, 0}}); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.Distinct != 3 {
				t.Fatalf("after delta-only appends Distinct = %d, want 3", st.Distinct)
			}
			sum := 0
			base := 0
			for i, sh := range st.Shards {
				sum += sh.Distinct
				base += e.cores[i].base.NumDistinct()
			}
			if sum != 3 {
				t.Fatalf("per-shard Distinct sums to %d, want 3", sum)
			}
			if base != 0 {
				t.Fatalf("precondition lost: %d combinations compacted into bases, want all delta-resident", base)
			}
			// Removing a combination entirely must drop it from the live
			// count even though its base (if any) still holds it.
			if err := e.Delete([][]uint8{{1, 1, 1}}); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.Distinct != 2 {
				t.Fatalf("after full retraction Distinct = %d, want 2", st.Distinct)
			}
		})
	}
}

// TestShardProberCoverageBatch pins the merged fan-out probe: a batch
// against the sharded prober must answer exactly like per-pattern
// probes, count one logical probe per pattern, and cost a single
// merged batch (shard-major) rather than one fan-out per candidate.
func TestShardProberCoverageBatch(t *testing.T) {
	cards := []int{3, 4, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(9))
	e := NewSharded(schema, 4, Options{})
	if err := e.Append(randomRows(rng, cards, 300)); err != nil {
		t.Fatal(err)
	}
	pr := e.Oracle().NewCoverageProber()
	sp, ok := pr.(*shardProber)
	if !ok {
		t.Fatalf("sharded oracle prober is %T, want *shardProber", pr)
	}
	var ps []pattern.Pattern
	pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
		ps = append(ps, p.Clone())
		return true
	})
	want := make([]int64, len(ps))
	ref := e.Oracle().NewCoverageProber()
	for i, p := range ps {
		want[i] = ref.Coverage(p)
	}
	got := make([]int64, len(ps))
	index.CoverageAll(pr, ps, math.MaxInt64, got)
	for i := range ps {
		if want[i] != got[i] {
			t.Fatalf("batched cov(%v) = %d, scalar %d", ps[i], got[i], want[i])
		}
	}
	if sp.Probes() != int64(len(ps)) {
		t.Errorf("batch counted %d logical probes for %d patterns", sp.Probes(), len(ps))
	}
	if sp.batches != 1 {
		t.Errorf("batch counted %d merged passes, want 1", sp.batches)
	}
}
