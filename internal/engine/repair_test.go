package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// netDeltas turns a deleted and an appended batch into the removed and
// added delta lists a bidirectional repair takes.
func netDeltas(deleted, appended [][]uint8) (removed, added []mup.Delta) {
	net := func(rows [][]uint8, sign int64) []mup.Delta {
		counts := make(map[string]int64)
		for _, r := range rows {
			counts[string(r)] += sign
		}
		out := make([]mup.Delta, 0, len(counts))
		for k, n := range counts {
			out = append(out, mup.Delta{Combo: pattern.Pattern(k), Count: n})
		}
		return out
	}
	return net(deleted, -1), net(appended, 1)
}

func mustEqualResults(t *testing.T, ctx string, got, want *mup.Result) {
	t.Helper()
	if len(got.MUPs) != len(want.MUPs) || len(got.Cov) != len(want.Cov) {
		t.Fatalf("%s: %d MUPs / %d Cov, want %d / %d", ctx, len(got.MUPs), len(got.Cov), len(want.MUPs), len(want.Cov))
	}
	for i := range want.MUPs {
		if !got.MUPs[i].Equal(want.MUPs[i]) || got.Cov[i] != want.Cov[i] {
			t.Fatalf("%s: MUPs[%d] = %v cov %d, want %v cov %d", ctx, i, got.MUPs[i], got.Cov[i], want.MUPs[i], want.Cov[i])
		}
	}
}

// TestRepairBidirectionalWorkersAndShards: the repaired set, its
// coverage values and both cost counters are the same for every worker
// count and every shard count — a pure deletion (no probe at all) and a
// mixed batch whose appends lift some seeds (probes, deduplicated
// across the workers) alike — and the set is the from-scratch search's.
func TestRepairBidirectionalWorkersAndShards(t *testing.T) {
	cards := []int{4, 3, 5, 2, 3, 4, 2, 3}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(11))
	base := randomRows(rng, cards, 6000)
	deleted := base[:150]
	appended := randomRows(rng, cards, 150)
	opts := mup.Options{Threshold: 12}

	for _, mixed := range []bool{false, true} {
		var first *mup.Result
		for _, shards := range []int{1, 3} {
			e := NewSharded(schema, shards, Options{})
			if err := e.Append(base); err != nil {
				t.Fatal(err)
			}
			old, err := e.MUPs(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(deleted); err != nil {
				t.Fatal(err)
			}
			removed, added := netDeltas(deleted, nil)
			if mixed {
				if err := e.Append(appended); err != nil {
					t.Fatal(err)
				}
				removed, added = netDeltas(deleted, appended)
			}
			oracle := e.Oracle()
			want, err := mup.ParallelPatternBreaker(oracle, mup.ParallelOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				ctx := fmt.Sprintf("mixed=%v shards=%d workers=%d", mixed, shards, workers)
				got, err := mup.RepairBidirectional(oracle, old, removed, added, mup.ParallelOptions{Options: opts, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, ctx, got, want)
				if first == nil {
					first = got
					if probed := got.Stats.CoverageProbes > 0; probed != mixed {
						t.Fatalf("%s: %d probes; the fixture needs none for a pure deletion and some once appends lift a seed", ctx, got.Stats.CoverageProbes)
					}
					if len(got.MUPs) == len(old.MUPs) {
						t.Fatalf("%s: the MUP set kept its size %d; the fixture lost its point", ctx, len(old.MUPs))
					}
				}
				if got.Stats != first.Stats {
					t.Errorf("%s: stats %+v, want %+v as for 1 shard and 1 worker", ctx, got.Stats, first.Stats)
				}
			}
		}
	}
}

// TestDeleteRepairWideSchema: past the ancestor cube's dimension bound
// (2^d cells per worker stops being a sensible scratch at d = 21) a
// deletion is answered by the full search from inside the repair, and
// the engine serves exactly what a from-scratch search finds.
func TestDeleteRepairWideSchema(t *testing.T) {
	cards := make([]int, 21)
	for i := range cards {
		cards[i] = 2
	}
	cards[3], cards[17] = 3, 3
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, cards, 12)
	// Level-bounded: the unbounded frontier of a dozen rows over 2^21
	// combinations is tens of thousands of deep patterns per search.
	opts := mup.Options{Threshold: 2, MaxLevel: 3}

	e := NewSharded(testSchema(t, cards), 2, Options{})
	if err := e.Append(rows); err != nil {
		t.Fatal(err)
	}
	old, err := e.MUPs(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(rows[:2]); err != nil {
		t.Fatal(err)
	}
	got, err := e.MUPs(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := e.Oracle()
	want, err := mup.ParallelPatternBreaker(oracle, mup.ParallelOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "Engine.Delete + MUPs", got, want)
	if len(got.MUPs) == len(old.MUPs) {
		t.Fatalf("the deletion left the MUP count at %d; the fixture lost its point", len(old.MUPs))
	}

	removed, added := netDeltas(rows[:2], nil)
	direct, err := mup.RepairBidirectional(oracle, old, removed, added, mup.ParallelOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "RepairBidirectional", direct, want)

	// Appends alone need no cube and are still repaired from the seeds.
	if err := e.Append(rows[:2]); err != nil {
		t.Fatal(err)
	}
	_, added = netDeltas(nil, rows[:2])
	back, err := mup.RepairBidirectional(e.Oracle(), got, nil, added, mup.ParallelOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "append-only RepairBidirectional", back, old)
	if back.Stats.Algorithm != "bidirectional-repair" {
		t.Errorf("append-only repair ran %q, want bidirectional-repair", back.Stats.Algorithm)
	}
}

// TestAnswerBodyGetsReplacedEntry pins Answer.Body's contract: the
// answer a repair returns hands build the result and the body of the
// entry it replaced; a cold search, a hit and a repair of an entry
// that never kept a body hand it nil for what they lack.
func TestAnswerBodyGetsReplacedEntry(t *testing.T) {
	cards := []int{3, 2, 4}
	rng := rand.New(rand.NewSource(3))
	e := NewSharded(testSchema(t, cards), 2, Options{})
	if err := e.Append(randomRows(rng, cards, 200)); err != nil {
		t.Fatal(err)
	}
	opts := mup.Options{Threshold: 12}
	type call struct {
		prev     *mup.Result
		prevBody []byte
	}
	body := func(a Answer, tag string) (call, bool) {
		var got call
		called := false
		a.Body(func(prev *mup.Result, prevBody []byte) []byte {
			got, called = call{prev, prevBody}, true
			return []byte(tag)
		})
		return got, called
	}

	cold, err := e.MUPsAnswer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, called := body(cold, "cold"); !called || got.prev != nil || got.prevBody != nil {
		t.Fatalf("cold search: build called %v with %+v, want once with nothing", called, got)
	}
	if err := e.Append(randomRows(rng, cards, 20)); err != nil {
		t.Fatal(err)
	}
	repaired, err := e.MUPsAnswer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, called := body(repaired, "repaired"); !called || got.prev != cold.Res || string(got.prevBody) != "cold" {
		t.Fatalf("repair: build called %v with %+v, want the cold result and its body", called, got)
	}
	hit, err := e.MUPsAnswer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit.prev != nil {
		t.Fatal("a hit carries the replaced entry")
	}
	if _, called := body(hit, "hit"); called {
		t.Fatal("a hit on an entry with a body built another")
	}

	// A repair of an entry no reply asked a body of hands build its
	// result alone.
	if err := e.Append(randomRows(rng, cards, 20)); err != nil {
		t.Fatal(err)
	}
	bare, err := e.MUPsAnswer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(randomRows(rng, cards, 20)); err != nil {
		t.Fatal(err)
	}
	next, err := e.MUPsAnswer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, called := body(next, "next"); !called || got.prev != bare.Res || got.prevBody != nil {
		t.Fatalf("repair of a bodiless entry: build called %v with %+v, want its result and no body", called, got)
	}
}
