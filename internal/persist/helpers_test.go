package persist

import (
	"math/rand"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// testSchema is small enough that every pattern can be enumerated for
// exhaustive coverage comparison: (2+1)·(3+1)·(4+1) = 60 patterns.
func testSchema() *dataset.Schema {
	return dataset.MustSchema([]dataset.Attribute{
		{Name: "sex", Values: []string{"female", "male"}},
		{Name: "race", Values: []string{"black", "other", "white"}},
		{Name: "age", Values: []string{"lt25", "25to45", "gt45", "unknown"}},
	})
}

func randomRow(rng *rand.Rand, cards []int) []uint8 {
	row := make([]uint8, len(cards))
	for i, c := range cards {
		row[i] = uint8(rng.Intn(c))
	}
	return row
}

func randomBatch(rng *rand.Rand, cards []int, n int) [][]uint8 {
	rows := make([][]uint8, n)
	for i := range rows {
		rows[i] = randomRow(rng, cards)
	}
	return rows
}

// countsOf flattens a state's per-shard count lists into one map, for
// tests that read multiplicities by key or compare states of different
// shard counts.
func countsOf(st *engine.State) map[string]int64 {
	m := map[string]int64{}
	for _, list := range st.Counts {
		for _, kc := range list {
			m[kc.Key] = kc.Count
		}
	}
	return m
}

// allPatterns enumerates the full pattern graph of the cards vector.
func allPatterns(cards []int) []pattern.Pattern {
	var out []pattern.Pattern
	var walk func(p pattern.Pattern, i int)
	walk = func(p pattern.Pattern, i int) {
		if i == len(cards) {
			out = append(out, p.Clone())
			return
		}
		p = append(p, pattern.Wildcard)
		walk(p, i+1)
		for v := 0; v < cards[i]; v++ {
			p[i] = uint8(v)
			walk(p, i+1)
		}
	}
	walk(make(pattern.Pattern, 0, len(cards)), 0)
	return out
}

// assertEquivalent verifies that two engines answer every coverage
// query and a spread of MUP queries identically — the restored-equals-
// survivor invariant all persistence tests reduce to.
func assertEquivalent(t testing.TB, want, got *engine.Engine) {
	t.Helper()
	if w, g := want.Rows(), got.Rows(); w != g {
		t.Fatalf("rows: restored %d, want %d", g, w)
	}
	if w, g := want.Generation(), got.Generation(); w != g {
		t.Fatalf("generation: restored %d, want %d", g, w)
	}
	if w, g := want.Window(), got.Window(); w != g {
		t.Fatalf("window: restored %d, want %d", g, w)
	}
	cards := want.Cards()
	for _, p := range allPatterns(cards) {
		w, err := want.Coverage(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Coverage(p)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Fatalf("cov(%v): restored %d, want %d", p, g, w)
		}
	}
	for _, tau := range []int64{1, 2, 5} {
		w, err := want.MUPs(mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.MUPs(mup.Options{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(w.MUPs) != len(g.MUPs) {
			t.Fatalf("τ=%d: restored %d MUPs, want %d\nrestored: %v\nwant: %v", tau, len(g.MUPs), len(w.MUPs), g.MUPs, w.MUPs)
		}
		for i := range w.MUPs {
			if w.MUPs[i].Key() != g.MUPs[i].Key() {
				t.Fatalf("τ=%d MUP %d: restored %v, want %v", tau, i, g.MUPs[i], w.MUPs[i])
			}
		}
	}
}

// mutatedEngine builds an engine and walks it through a deterministic
// randomized mutation history — appends, deletes, window changes and
// interleaved MUP queries so the caches, mutation logs and tombstones
// are all non-trivially populated.
func mutatedEngine(t testing.TB, seed int64, ops int) *engine.Engine {
	t.Helper()
	eng := engine.New(testSchema(), engine.Options{})
	driveEngine(t, eng, seed, ops)
	return eng
}

// driveEngine applies the seed's mutation schedule to an engine.
func driveEngine(t testing.TB, eng *engine.Engine, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cards := eng.Cards()
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 5: // append
			if err := eng.Append(randomBatch(rng, cards, 1+rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		case r < 7: // delete rows that are actually present
			rows := deletableRows(rng, eng, 1+rng.Intn(3))
			if len(rows) == 0 {
				continue
			}
			if err := eng.Delete(rows); err != nil {
				t.Fatal(err)
			}
		case r < 8: // window change (occasionally disabling)
			if rng.Intn(4) == 0 {
				eng.SetWindow(0)
			} else {
				eng.SetWindow(5 + rng.Intn(40))
			}
		default: // query, so MUP caches and compactions happen mid-history
			if _, err := eng.MUPs(mup.Options{Threshold: int64(1 + rng.Intn(4))}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// deletableRows samples up to n rows whose combinations currently
// exist in the engine, drawn by rejection from the full combination
// space (the test schema is tiny, so hits are frequent).
func deletableRows(rng *rand.Rand, eng *engine.Engine, n int) [][]uint8 {
	cards := eng.Cards()
	var rows [][]uint8
	for attempts := 0; len(rows) < n && attempts < 50; attempts++ {
		row := randomRow(rng, cards)
		c, err := eng.Coverage(pattern.FromValues(row))
		if err != nil || c < 1 {
			continue
		}
		// Never queue more copies than exist.
		pending := int64(0)
		for _, r := range rows {
			if string(r) == string(row) {
				pending++
			}
		}
		if pending < c {
			rows = append(rows, row)
		}
	}
	return rows
}

// feedRecords parses a headerless stream of framed WAL records — the
// bytes WALSince serves — and reports whether it ended on a record
// boundary. Each record's rows view data.
func feedRecords(data []byte, dim int) (recs []walRecord, complete bool) {
	for off := int64(0); off < int64(len(data)); {
		rec, next, ok := parseWALRecord(data, off, dim)
		if !ok {
			return recs, false
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, true
}
