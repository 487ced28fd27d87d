package engine

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/mup"
)

// TestColdSearchPaths runs the engine's cold search down each of its
// three paths at 1 and 3 shards and 1 and 4 workers: the pattern cube
// (AirBnB-shaped, 13 binary attributes: 1.59 M patterns), the walk
// (Zipf over ten attributes of cardinality 2–6: 6.35 M patterns, past
// the cube bound) and the uncovered root (τ = rows + 1). Every answer
// must equal ParallelPatternBreaker's on the same engine's oracle, Cov
// included, and Stats.Algorithm must name the path.
func TestColdSearchPaths(t *testing.T) {
	const rows = 4000
	airbnb := datagen.AirBnB(rows, 13, 1)
	zipf := datagen.Zipf(rows, []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 1.2, 1)
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		tau  int64
		algo string
	}{
		{"airbnb13", airbnb, 40, "pattern-cube"},
		{"zipf10", zipf, 80, "parallel-pattern-breaker"},
		{"root", airbnb, rows + 1, "uncovered-root"},
	} {
		for _, shards := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", tc.name, shards, workers), func(t *testing.T) {
					e := NewFromDataset(tc.ds, Options{Shards: shards, Workers: workers})
					opts := mup.Options{Threshold: tc.tau}
					got, err := e.MUPs(opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Stats.Algorithm != tc.algo {
						t.Fatalf("cold search ran %q, want %q", got.Stats.Algorithm, tc.algo)
					}
					want, err := mup.ParallelPatternBreaker(e.Oracle(), mup.ParallelOptions{Options: opts, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if len(got.MUPs) != len(want.MUPs) {
						t.Fatalf("%d MUPs, the walk finds %d", len(got.MUPs), len(want.MUPs))
					}
					for i := range got.MUPs {
						if !got.MUPs[i].Equal(want.MUPs[i]) {
							t.Fatalf("MUPs[%d] = %v, the walk's is %v", i, got.MUPs[i], want.MUPs[i])
						}
					}
					if !slices.Equal(got.Cov, want.Cov) {
						t.Fatal("Cov differs from the walk's")
					}
				})
			}
		}
	}
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdSearchAllocation pins what a cold search costs the heap. On
// the AirBnB-shaped 13-attribute cell at 20 000 rows and τ 100 the cube
// is 6.4 MB of uint32 cells; the walk it replaces allocated ≈ 200 MB. A
// threshold past the row count answers with the root and builds no
// table at all.
func TestColdSearchAllocation(t *testing.T) {
	e := NewFromDataset(datagen.AirBnB(20000, 13, 1), Options{})
	var res *mup.Result
	var err error
	got := allocated(func() { res, err = e.MUPs(mup.Options{Threshold: 100}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold search by %s: %d MUPs, %d B allocated", res.Stats.Algorithm, len(res.MUPs), got)
	if got > 16<<20 {
		t.Errorf("cold search by %s allocated %d B, want ≤ 16 MiB", res.Stats.Algorithm, got)
	}
	got = allocated(func() { res, err = e.MUPs(mup.Options{Threshold: 20001}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("root search: %d B allocated", got)
	if got >= 64<<10 {
		t.Errorf("root search allocated %d B, want < 64 KiB", got)
	}
	if res.Stats.Algorithm != "uncovered-root" || res.Stats.NodesVisited != 1 || len(res.MUPs) != 1 || res.Cov[0] != 20000 {
		t.Errorf("τ > rows: %d MUPs, Cov %v, stats %+v; want the root alone, with no table", len(res.MUPs), res.Cov, res.Stats)
	}
}

// TestLevelBoundSharesCacheEntry checks that every spelling of "no
// level bound" — 0, a negative bound, d, and past d — is one cache
// entry: one cold search, then hits, also for the plan cache and after
// a restore.
func TestLevelBoundSharesCacheEntry(t *testing.T) {
	e := NewFromDataset(datagen.AirBnB(2000, 13, 1), Options{})
	for _, level := range []int{0, -1, 13, 99} {
		if _, err := e.MUPs(mup.Options{Threshold: 20, MaxLevel: level}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.FullSearches != 1 || st.CacheHits != 3 || st.CachedSearches != 1 {
		t.Fatalf("full_searches %d, cache_hits %d, cached %d; want 1, 3, 1", st.FullSearches, st.CacheHits, st.CachedSearches)
	}
	// A snapshot may hold one answer under two spellings; restore keeps
	// one entry.
	state := e.ExportState()
	dup := state.Cache[0]
	dup.MaxLevel = 99
	state.Cache = append(state.Cache, dup)
	restored, err := NewFromState(state, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.MUPs(mup.Options{Threshold: 20, MaxLevel: 13}); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.FullSearches != 1 || st.CacheHits != 4 || st.CachedSearches != 1 {
		t.Errorf("after restore: full_searches %d, cache_hits %d, cached %d; want 1, 4, 1", st.FullSearches, st.CacheHits, st.CachedSearches)
	}
	for _, level := range []int{0, 13} {
		if _, err := e.Plan(t.Context(), mup.Options{Threshold: 20, MaxLevel: level}, PlanSpec{MaxLevel: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.PlanBuilds != 1 || st.PlanHits != 1 {
		t.Errorf("plan_builds %d, plan_hits %d; want 1, 1", st.PlanBuilds, st.PlanHits)
	}
}
