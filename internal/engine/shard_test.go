package engine

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// TestShardedMutateEquivalence is the coordinator's acceptance
// property: under randomized interleavings of appends, deletes and
// window changes, a ShardedEngine (N ≥ 2) must answer every coverage
// query and every cached-and-repaired MUP query identically to the
// single-shard engine driven through the same schedule — after every
// batch, over the whole pattern lattice.
func TestShardedMutateEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cards := []int{2, 3, 2}
			schema := testSchema(t, cards)
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			single := NewSharded(schema, 1, Options{CompactMinDistinct: 2, CompactFraction: 0.2})
			sharded := NewSharded(schema, shards, Options{CompactMinDistinct: 2, CompactFraction: 0.2})
			if got := sharded.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			const tau = 5
			for step := 0; step < 30; step++ {
				switch {
				case rng.Intn(6) == 5:
					w := 10 + rng.Intn(40)
					single.SetWindow(w)
					sharded.SetWindow(w)
				case rng.Intn(3) > 0 || single.Rows() == 0:
					batch := randomRows(rng, cards, 5+rng.Intn(25))
					if err := single.Append(batch); err != nil {
						t.Fatal(err)
					}
					if err := sharded.Append(batch); err != nil {
						t.Fatal(err)
					}
				default:
					batch := drawDeletableEngine(rng, single, 1+rng.Intn(8))
					if len(batch) == 0 {
						continue
					}
					if err := single.Delete(batch); err != nil {
						t.Fatal(err)
					}
					if err := sharded.Delete(batch); err != nil {
						t.Fatal(err)
					}
				}
				if w, g := single.Rows(), sharded.Rows(); w != g {
					t.Fatalf("step %d: sharded rows = %d, single-shard = %d", step, g, w)
				}
				var ps []pattern.Pattern
				pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
					ps = append(ps, p.Clone())
					return true
				})
				want, err := single.CoverageBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sharded.CoverageBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ps {
					if want[i] != got[i] {
						t.Fatalf("step %d: cov(%v) = %d sharded, %d single-shard", step, ps[i], got[i], want[i])
					}
				}
				wres, err := single.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				gres, err := sharded.MUPs(mup.Options{Threshold: tau})
				if err != nil {
					t.Fatal(err)
				}
				if len(wres.MUPs) != len(gres.MUPs) {
					t.Fatalf("step %d: %d MUPs sharded, %d single-shard\nsharded: %v\nsingle:  %v",
						step, len(gres.MUPs), len(wres.MUPs), gres.MUPs, wres.MUPs)
				}
				for i := range wres.MUPs {
					if !wres.MUPs[i].Equal(gres.MUPs[i]) {
						t.Fatalf("step %d: MUPs[%d] = %v sharded, %v single-shard", step, i, gres.MUPs[i], wres.MUPs[i])
					}
				}
			}
			// The schedule must actually have landed rows on more than
			// one core for the comparison to mean anything.
			st := sharded.Stats()
			if st.ShardCount != shards || len(st.Shards) != shards {
				t.Fatalf("ShardCount = %d with %d entries, want %d", st.ShardCount, len(st.Shards), shards)
			}
			busy := 0
			var sumRows int64
			sumDistinct := 0
			for _, sh := range st.Shards {
				if sh.Distinct > 0 {
					busy++
				}
				sumRows += sh.Rows
				sumDistinct += sh.Distinct
			}
			if busy < 2 {
				t.Errorf("only %d of %d shards hold data; the equivalence check lost its point", busy, shards)
			}
			if sumRows != st.Rows {
				t.Errorf("per-shard rows sum to %d, total says %d", sumRows, st.Rows)
			}
			if sumDistinct != st.Distinct {
				t.Errorf("per-shard distinct sums to %d, total says %d", sumDistinct, st.Distinct)
			}
			if st.Deletes == 0 {
				t.Error("the schedule never deleted; the equivalence check lost half its point")
			}
		})
	}
}

// drawDeletableEngine samples up to n rows currently live in the
// engine by enumerating its distinct combinations.
func drawDeletableEngine(rng *rand.Rand, e *Engine, n int) [][]uint8 {
	type entry struct {
		key   string
		count int64
	}
	var entries []entry
	e.Oracle().Range(func(combo []uint8, count int64) {
		entries = append(entries, entry{string(combo), count})
	})
	if len(entries) == 0 {
		return nil
	}
	var out [][]uint8
	for len(out) < n && len(entries) > 0 {
		i := rng.Intn(len(entries))
		out = append(out, []uint8(entries[i].key))
		if entries[i].count--; entries[i].count == 0 {
			entries[i] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
	}
	return out
}

// TestShardedConcurrentMutation is the cross-shard -race smoke:
// readers (point probes, batch probes, MUP queries) race a writer
// interleaving appends and deletes on a multi-shard engine, so the
// fan-out apply path, the parallel batch counting and the per-shard
// query summation all run concurrently. A final from-scratch
// equivalence check closes the loop.
func TestShardedConcurrentMutation(t *testing.T) {
	cards := []int{2, 3, 2}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(321))
	seedRows := randomRows(rng, cards, 300)
	e := NewSharded(schema, 4, Options{CompactMinDistinct: 4, CompactFraction: 0.1})
	if err := e.Append(seedRows); err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]int64)
	applyRef(ref, seedRows, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			probe := make(pattern.Pattern, len(cards))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j, c := range cards {
					if rng.Intn(2) == 0 {
						probe[j] = pattern.Wildcard
					} else {
						probe[j] = uint8(rng.Intn(c))
					}
				}
				if _, err := e.Coverage(probe); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.CoverageBatch([]pattern.Pattern{probe, pattern.All(len(cards))}); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.MUPs(mup.Options{Threshold: int64(4 + rng.Intn(2)*8)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(i + 1))
	}
	wrng := rand.New(rand.NewSource(654))
	for b := 0; b < 30; b++ {
		if wrng.Intn(3) > 0 || len(ref) == 0 {
			batch := randomRows(wrng, cards, 15)
			applyRef(ref, batch, 1)
			if err := e.Append(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := drawDeletable(wrng, ref, 1+wrng.Intn(8))
			applyRef(ref, batch, -1)
			if err := e.Delete(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	ix := refIndex(schema, ref)
	if e.Rows() != ix.Total() {
		t.Fatalf("engine rows = %d, reference = %d", e.Rows(), ix.Total())
	}
	for _, tau := range []int64{4, 12} {
		got, err := e.MUPs(mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mup.Naive(ix, mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.MUPs) != len(want.MUPs) {
			t.Fatalf("τ=%d: %d MUPs, want %d", tau, len(got.MUPs), len(want.MUPs))
		}
		for i := range got.MUPs {
			if !got.MUPs[i].Equal(want.MUPs[i]) {
				t.Fatalf("τ=%d: MUPs[%d] = %v, want %v", tau, i, got.MUPs[i], want.MUPs[i])
			}
		}
	}
}

// routerGolden pins the shard router as a function of the row: (row,
// n) → shard for n = 2, 3, 4 and 8, computed before the router moved
// from key strings to packed keys. Restores validate every persisted
// per-shard key list against the router, so any change to these values
// would make every multi-shard data directory unreadable. The rows come
// from randomRows with seeds 100, 101 and 102 over the three key
// layouts: raw (benchCards, 13 attributes), bit-compact (routerCompact,
// 20 attributes) and bit-compact with a field straddling the two key
// words (routerStraddle, 25 attributes of 31 values).
var routerGolden = []struct {
	cards []int
	rows  []routerCase
}{
	{benchCards, []routerCase{
		{"07020000010204030002010201", [4]int{0, 0, 2, 6}},
		{"04010200050102050202000105", [4]int{1, 1, 3, 7}},
		{"03000103010001030102040201", [4]int{1, 1, 1, 1}},
		{"06020300010003030002010001", [4]int{1, 1, 1, 1}},
		{"07030401040104000000010201", [4]int{1, 1, 3, 7}},
		{"02040202010201040000020300", [4]int{0, 0, 2, 2}},
		{"07030200050202050302040201", [4]int{1, 0, 3, 7}},
		{"02030400060000030202010200", [4]int{0, 1, 2, 2}},
	}},
	{routerCompact(), []routerCase{
		{"0000000201000302040500020001020003020104", [4]int{1, 0, 3, 7}},
		{"0201010204010301010001000202000200010003", [4]int{0, 1, 0, 4}},
		{"0000010201020100000501020400000102040105", [4]int{1, 2, 3, 7}},
		{"0103010306010301010102010302000201010103", [4]int{0, 0, 2, 6}},
		{"0001010106010300000400000005010100020505", [4]int{1, 0, 3, 7}},
		{"0203000405020000040401030104020003030502", [4]int{1, 1, 3, 3}},
		{"0102010501020302020400030003040002030506", [4]int{0, 2, 0, 0}},
		{"0103040006020204040200010005020003020305", [4]int{0, 0, 2, 6}},
	}},
	{routerStraddle(), []routerCase{
		{"0e1a03000f071d1003090c1b041409110b10130208100d1314", [4]int{0, 2, 0, 4}},
		{"180f0d1d061410111914131d141715060d08001c0d0319141b", [4]int{1, 2, 1, 1}},
		{"1d0d010c031400110a0a0a09101c0b1d09180d101b120d060e", [4]int{1, 0, 1, 1}},
		{"110d0b050c0b1300181e0f1e06000505081d0e0f19150b0105", [4]int{1, 1, 3, 3}},
		{"02100d130f0f0d1c0f120d061911051a00111e16080f1c1605", [4]int{0, 1, 2, 2}},
		{"0a0b130701000c0f040b1d0a1a0e0d04151c0807091b130a03", [4]int{1, 1, 3, 3}},
		{"061615160b0b0c01000d04051d0c0b1201090f08140d0a0009", [4]int{0, 1, 2, 2}},
		{"1b021e0109111c150e0b160a140e0b0f1b0c1b081a051e1215", [4]int{1, 0, 1, 5}},
	}},
}

type routerCase struct {
	row    string // hex value codes
	shards [4]int // for routerShardCounts
}

var routerShardCounts = [4]int{2, 3, 4, 8}

// routerCompact is a 20-attribute schema of 3 to 7 values: past
// pattern.RawKeyDim, so its keys take the bit-compact layout.
func routerCompact() []int {
	cards := make([]int, 20)
	for i := range cards {
		cards[i] = 3 + i%5
	}
	return cards
}

// routerStraddle is 25 attributes of 31 values, five bits each: twelve
// fields fill each key word to 60 bits and the last one straddles them.
func routerStraddle() []int {
	cards := make([]int, 25)
	for i := range cards {
		cards[i] = 31
	}
	return cards
}

// TestShardRouterGolden checks the router against routerGolden.
func TestShardRouterGolden(t *testing.T) {
	for _, layout := range routerGolden {
		for _, tc := range layout.rows {
			row, err := hex.DecodeString(tc.row)
			if err != nil || len(row) != len(layout.cards) {
				t.Fatalf("bad golden row %q for %d attributes", tc.row, len(layout.cards))
			}
			codec := pattern.NewKeyCodec(layout.cards)
			for i, n := range routerShardCounts {
				if got := shardOfRow(row, n); got != tc.shards[i] {
					t.Errorf("%d attributes: row %s routes to shard %d of %d, golden %d", len(row), tc.row, got, n, tc.shards[i])
				}
				if got := shardOf(codec, codec.PackedKey(row), n); got != tc.shards[i] {
					t.Errorf("%d attributes: key of row %s routes to shard %d of %d, golden %d", len(row), tc.row, got, n, tc.shards[i])
				}
			}
		}
	}
}

// TestShardRouterDeterminism pins the routing rule: the key router
// equals the row router in every key layout (raw, bit-compact, and
// bit-compact with a straddling field), so a combination lands on the
// same core whether it arrives as a row or as a packed key, and the
// partition is reasonably balanced on a spread of keys.
func TestShardRouterDeterminism(t *testing.T) {
	const n = 8
	for _, cards := range [][]int{{7, 5, 11, 3}, benchCards, routerCompact(), routerStraddle()} {
		codec := pattern.NewKeyCodec(cards)
		seen := make([]int, n)
		rng := rand.New(rand.NewSource(5))
		for _, row := range randomRows(rng, cards, 4096) {
			s := shardOfRow(row, n)
			if got := shardOf(codec, codec.PackedKey(row), n); got != s {
				t.Fatalf("%d attributes: shardOf(%v) = %d as a key, %d as a row", len(cards), row, got, s)
			}
			if s < 0 || s >= n {
				t.Fatalf("shardOfRow(%v) = %d out of range", row, s)
			}
			seen[s]++
		}
		for s, c := range seen {
			if c == 0 {
				t.Errorf("%d attributes: shard %d received no keys out of 4096", len(cards), s)
			}
		}
	}
	codec := pattern.NewKeyCodec([]int{3, 3})
	if shardOf(codec, codec.PackedKey(pattern.Pattern{1, 2}), 1) != 0 || shardOfRow([]uint8{1, 2}, 1) != 0 {
		t.Error("single-shard router must always answer 0")
	}
}

// TestRepairDeltaUpdatesCov pins the coverage-value cache: an append
// that touches no cached MUP must repair with zero oracle probes (the
// cached cov values are delta-updated, not re-probed), and the values
// must stay exact.
func TestRepairDeltaUpdatesCov(t *testing.T) {
	cards := []int{3, 3, 3}
	schema := testSchema(t, cards)
	e := New(schema, Options{})
	// Cover (0|1, 0|1, 0|1) densely; leave everything involving value
	// 2 uncovered. τ=2 puts the MUP frontier on the value-2 slices.
	var batch [][]uint8
	for a := uint8(0); a < 2; a++ {
		for b := uint8(0); b < 2; b++ {
			for c := uint8(0); c < 2; c++ {
				for i := 0; i < 3; i++ {
					batch = append(batch, []uint8{a, b, c})
				}
			}
		}
	}
	if err := e.Append(batch); err != nil {
		t.Fatal(err)
	}
	res, err := e.MUPs(mup.Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MUPs) == 0 {
		t.Fatal("precondition: no MUPs to repair")
	}
	if res.Cov == nil || len(res.Cov) != len(res.MUPs) {
		t.Fatalf("full search returned no coverage-value cache: Cov = %v", res.Cov)
	}

	// Append more rows of an already-covered combination: no cached
	// MUP matches them, so the repair must not probe at all.
	if err := e.Append([][]uint8{{0, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	res2, err := e.MUPs(mup.Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", st.Repairs)
	}
	if res2.Stats.Algorithm != "incremental-repair" {
		t.Fatalf("algorithm = %q, want incremental-repair", res2.Stats.Algorithm)
	}
	if res2.Stats.CoverageProbes != 0 {
		t.Errorf("repair issued %d probes for an untouched MUP set, want 0", res2.Stats.CoverageProbes)
	}
	if err := mup.VerifyResult(e.Oracle(), 2, res2); err != nil {
		t.Fatal(err)
	}

	// Append rows matching one MUP without covering it: still zero
	// probes — its cov value is delta-updated from the added log.
	if err := e.Append([][]uint8{{2, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	res3, err := e.MUPs(mup.Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.CoverageProbes != 0 {
		t.Errorf("repair issued %d probes for a touched-but-uncovered MUP set, want 0 (cov delta-updated)", res3.Stats.CoverageProbes)
	}
	if err := mup.VerifyResult(e.Oracle(), 2, res3); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRestoreTopologyChange exports a sharded engine's state
// and restores it at several other shard counts: every restore must
// answer identically and re-partition exactly along the hash router,
// and a corrupted state must be rejected.
func TestShardedRestoreTopologyChange(t *testing.T) {
	cards := []int{2, 3, 4}
	schema := testSchema(t, cards)
	rng := rand.New(rand.NewSource(77))
	src := NewSharded(schema, 3, Options{})
	if err := src.Append(randomRows(rng, cards, 400)); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(drawDeletableEngine(rng, src, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.MUPs(mup.Options{Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	st := src.ExportState()
	if len(st.Counts) != 3 {
		t.Fatalf("exported %d count lists, want 3", len(st.Counts))
	}
	for _, target := range []int{1, 2, 3, 5} {
		restored, err := NewFromState(st, Options{Shards: target})
		if err != nil {
			t.Fatalf("restore at %d shards: %v", target, err)
		}
		if got := restored.Shards(); got != target {
			t.Fatalf("restored Shards() = %d, want %d", got, target)
		}
		if restored.Rows() != src.Rows() {
			t.Fatalf("restored rows = %d, want %d", restored.Rows(), src.Rows())
		}
		pattern.EnumerateAll(cards, func(p pattern.Pattern) bool {
			w, err := src.Coverage(p)
			if err != nil {
				t.Fatal(err)
			}
			g, err := restored.Coverage(p)
			if err != nil {
				t.Fatal(err)
			}
			if w != g {
				t.Fatalf("%d shards: cov(%v) = %d, want %d", target, p, g, w)
			}
			return true
		})
		w, err := src.MUPs(mup.Options{Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		g, err := restored.MUPs(mup.Options{Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(w.MUPs) != len(g.MUPs) {
			t.Fatalf("%d shards: %d MUPs, want %d", target, len(g.MUPs), len(w.MUPs))
		}
	}
	// A mutation-log record carries its combination's net change,
	// never 0: a zero-count record in either log is rejected whole.
	for _, log := range []string{"removed", "added"} {
		bad := src.ExportState()
		recs := bad.Removed.Recs
		if log == "added" {
			recs = bad.Added.Recs
		}
		recs[len(recs)-1].Count = 0
		if _, err := NewFromState(bad, Options{Shards: 3}); err == nil {
			t.Errorf("%s-log record with count 0 accepted", log)
		}
	}
	// A corrupted partition — a key stored on the wrong shard — must
	// be rejected whole.
	bad := src.ExportState()
	if len(bad.Counts[0]) == 0 || len(bad.Counts[1]) == 0 {
		t.Skip("degenerate partition")
	}
	bad.Counts[0], bad.Counts[1] = bad.Counts[1], bad.Counts[0]
	if _, err := NewFromState(bad, Options{Shards: 3}); err == nil {
		t.Error("mis-routed shard partition accepted")
	}
}
