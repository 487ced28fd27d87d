package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"coverage/internal/mup"
)

// packRows lays rows out back to back, the way a WAL record holds them.
func packRows(rows [][]uint8) []byte {
	var b []byte
	for _, r := range rows {
		b = append(b, r...)
	}
	return b
}

// commitRun prepares and commits one run.
func commitRun(e *Engine, recs []RunRecord) error {
	r, err := e.PrepareRun(recs)
	if err != nil {
		return err
	}
	return e.CommitRun(r)
}

// TestRunMatchesRecordByRecord: a history of append and delete records
// committed in runs leaves the engine with the counts, rows, generation,
// record counters and MUPs (cold, and repaired from a cache older than
// the runs) of an engine that applied the records one by one. Deletes
// are drawn so each is valid where it stands in the history, including
// ones that retract rows appended earlier in the same run.
func TestRunMatchesRecordByRecord(t *testing.T) {
	cards := []int{3, 4, 2, 3, 5}
	schema := testSchema(t, cards)
	for _, shards := range []int{1, 2, 3} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7*shards + workers)))
				opts := Options{Shards: shards, Workers: workers}
				ref, got := New(schema, opts), New(schema, opts)
				seed := randomRows(rng, cards, 300)
				for _, e := range []*Engine{ref, got} {
					if err := e.Append(seed); err != nil {
						t.Fatal(err)
					}
					if _, err := e.MUPs(mup.Options{Threshold: 3}); err != nil {
						t.Fatal(err)
					}
				}
				live := map[string]int64{}
				applyRef(live, seed, 1)
				appends, deletes := int64(1), int64(0)
				for round := 0; round < 12; round++ {
					var run []RunRecord
					for n := 1 + rng.Intn(30); len(run) < n; {
						var rows [][]uint8
						del := rng.Intn(3) == 0
						if del {
							rows = drawDeletable(rng, live, 1+rng.Intn(60))
							if len(rows) == 0 {
								continue
							}
							if err := ref.Delete(rows); err != nil {
								t.Fatal(err)
							}
							applyRef(live, rows, -1)
							deletes++
						} else {
							rows = randomRows(rng, cards, 1+rng.Intn(200))
							if err := ref.Append(rows); err != nil {
								t.Fatal(err)
							}
							applyRef(live, rows, 1)
							appends++
						}
						run = append(run, RunRecord{Delete: del, Rows: packRows(rows)})
					}
					if err := commitRun(got, run); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				// Append and Delete are runs of one record themselves, so
				// the engines are also held to the reference counts.
				w, g := ref.ExportState(), got.ExportState()
				var rows int64
				for _, n := range live {
					rows += n
				}
				if !reflect.DeepEqual(countsOf(g), live) || g.Rows != rows || g.Generation != uint64(appends+deletes) ||
					g.Counters.Appends != appends || g.Counters.Deletes != deletes {
					t.Fatalf("runs left %d rows at generation %d after %d appends and %d deletes, want %d rows (counts equal: %v)",
						g.Rows, g.Generation, g.Counters.Appends, g.Counters.Deletes, rows, reflect.DeepEqual(countsOf(g), live))
				}
				if !reflect.DeepEqual(w.Counts, g.Counts) || w.Rows != g.Rows || w.Generation != g.Generation {
					t.Fatalf("runs left rows %d at generation %d, records %d at %d (counts equal: %v)",
						g.Rows, g.Generation, w.Rows, w.Generation, reflect.DeepEqual(w.Counts, g.Counts))
				}
				if w.Counters.Appends != g.Counters.Appends || w.Counters.Deletes != g.Counters.Deletes {
					t.Fatalf("runs count %d appends and %d deletes, records %d and %d",
						g.Counters.Appends, g.Counters.Deletes, w.Counters.Appends, w.Counters.Deletes)
				}
				for _, tau := range []int64{3, 8} {
					wr, err := ref.MUPs(mup.Options{Threshold: tau})
					if err != nil {
						t.Fatal(err)
					}
					gr, err := got.MUPs(mup.Options{Threshold: tau})
					if err != nil {
						t.Fatal(err)
					}
					mustEqualResults(t, fmt.Sprintf("τ=%d", tau), gr, wr)
					nr, err := mup.Naive(refIndex(schema, live), mup.Options{Threshold: tau})
					if err != nil {
						t.Fatal(err)
					}
					if len(gr.MUPs) != len(nr.MUPs) {
						t.Fatalf("τ=%d: %d MUPs, the reference counts have %d", tau, len(gr.MUPs), len(nr.MUPs))
					}
					for i := range nr.MUPs {
						if !gr.MUPs[i].Equal(nr.MUPs[i]) {
							t.Fatalf("τ=%d: MUPs[%d] = %v, the reference counts give %v", tau, i, gr.MUPs[i], nr.MUPs[i])
						}
					}
				}
			})
		}
	}
}

// TestRunRefusals: PrepareRun refuses a record that is not a whole
// number of rows and a value code past its attribute's cardinality;
// CommitRun refuses a delete that overdraws a combination at its point
// in the run, even when appends later in the run make up for it — also
// when the delete and the appends land in different workers' chunks.
// Every refused run leaves the engine exactly as it was. A run is
// checked against the counts it commits onto, not those it was
// prepared beside: one prepared before another append commits after
// it. On a windowed engine a one-record run commits and evicts exactly
// as Append and Delete do, and a two-record run is refused.
func TestRunRefusals(t *testing.T) {
	cards := []int{3, 4, 2}
	schema := testSchema(t, cards)
	x, y := []uint8{2, 3, 1}, []uint8{0, 0, 0}
	many := func(row []uint8, n int) []byte {
		rows := make([][]uint8, n)
		for i := range rows {
			rows[i] = row
		}
		return packRows(rows)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := NewSharded(schema, 2, Options{Workers: workers})
			if err := e.Append([][]uint8{y, y, {1, 2, 0}}); err != nil {
				t.Fatal(err)
			}
			before := e.ExportState()
			untouched := func(what string) {
				t.Helper()
				if after := e.ExportState(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s: the refused run changed the engine", what)
				}
			}
			for _, tc := range []struct {
				name, want string
				run        []RunRecord
			}{
				{"code past cardinality", "exceeds cardinality", []RunRecord{
					{Rows: many(y, 10)},
					{Rows: []byte{0, 4, 0}},
				}},
				{"ragged record", "not a positive number", []RunRecord{
					{Rows: []byte{0, 1}},
				}},
			} {
				_, err := e.PrepareRun(tc.run)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: PrepareRun error %v, want one containing %q", tc.name, err, tc.want)
				}
				untouched(tc.name)
			}
			for _, tc := range []struct {
				name string
				run  []RunRecord
			}{
				{"overdraw then make up", []RunRecord{
					{Rows: many(y, 600)},
					{Delete: true, Rows: many(x, 1)},
					{Rows: many(x, 2)},
				}},
				{"overdraw across chunks", []RunRecord{
					{Rows: many(x, 300)},
					{Delete: true, Rows: many(x, 301)},
					{Rows: many(x, 400)},
				}},
				// With 4 workers the deletes fill chunk 0 and the appends
				// chunks 1–3, so the low point is a chunk boundary.
				{"overdraw at the end of a chunk", []RunRecord{
					{Delete: true, Rows: many(y, 175)},
					{Rows: many(y, 525)},
				}},
				{"overdraw by the net", []RunRecord{
					{Rows: many(x, 2)},
					{Delete: true, Rows: many(y, 3)},
				}},
			} {
				r, err := e.PrepareRun(tc.run)
				if err != nil {
					t.Fatalf("%s: PrepareRun: %v", tc.name, err)
				}
				if err := e.CommitRun(r); err == nil || !strings.Contains(err.Error(), "cannot delete") {
					t.Fatalf("%s: CommitRun error %v, want an overdraw", tc.name, err)
				}
				untouched(tc.name)
			}

			// Appends in an earlier chunk pay for deletes in a later one.
			if err := commitRun(e, []RunRecord{{Rows: many(x, 300)}, {Delete: true, Rows: many(x, 300)}}); err != nil {
				t.Fatalf("run that nets to zero at every point: %v", err)
			}
			if g := e.Generation(); g != before.Generation+2 {
				t.Fatalf("generation %d after a two-record run from %d", g, before.Generation)
			}
			if c := e.ExportState().Counts; !reflect.DeepEqual(c, before.Counts) {
				t.Fatalf("counts %v after a run netting to zero, want %v", c, before.Counts)
			}

			// A delete prepared while x is absent commits once an append
			// has brought x in.
			r, err := e.PrepareRun([]RunRecord{{Delete: true, Rows: many(x, 1)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Append([][]uint8{x, x}); err != nil {
				t.Fatal(err)
			}
			gen := e.Generation()
			if err := e.CommitRun(r); err != nil {
				t.Fatalf("a run prepared before an append: %v", err)
			}
			if g, c := e.Generation(), countsOf(e.ExportState()); g != gen+1 || c[string(x)] != 1 {
				t.Fatalf("generation %d with %d of x after the run, want %d with 1", g, c[string(x)], gen+1)
			}

			// A window of 3 rows: the append evicts its own oldest a, the
			// delete tombstones b, and the next append pops b's tombstone
			// and evicts c.
			e = NewSharded(schema, 2, Options{Workers: workers})
			e.SetWindow(3)
			a, b, c, d := x, y, []uint8{1, 2, 0}, []uint8{0, 1, 1}
			for step, tc := range []struct {
				rec                 RunRecord
				counts              map[string]int64
				log                 [][]uint8
				tombstones, evicted int64
				removed             []uint8
			}{
				{RunRecord{Rows: packRows([][]uint8{a, b, c, a})},
					map[string]int64{string(a): 1, string(b): 1, string(c): 1}, [][]uint8{b, c, a}, 0, 1, a},
				{RunRecord{Delete: true, Rows: packRows([][]uint8{b})},
					map[string]int64{string(a): 1, string(c): 1}, [][]uint8{b, c, a}, 1, 1, b},
				{RunRecord{Rows: packRows([][]uint8{d, d})},
					map[string]int64{string(a): 1, string(d): 2}, [][]uint8{a, d, d}, 0, 2, c},
			} {
				if err := commitRun(e, []RunRecord{tc.rec}); err != nil {
					t.Fatalf("windowed step %d: %v", step, err)
				}
				st := e.ExportState()
				var log []string
				for _, row := range tc.log {
					log = append(log, string(row))
				}
				rm := st.Removed.Recs[len(st.Removed.Recs)-1]
				if !reflect.DeepEqual(countsOf(st), tc.counts) || !reflect.DeepEqual(st.WindowLog, log) ||
					st.Tombstones != tc.tombstones || e.Stats().Evictions != tc.evicted ||
					rm != (MutationRec{Gen: st.Generation, Key: string(tc.removed), Count: -1}) {
					t.Fatalf("windowed step %d: counts %v, window %q, %d tombstones, %d evictions, last removed %+v",
						step, countsOf(st), st.WindowLog, st.Tombstones, e.Stats().Evictions, rm)
				}
			}
			before = e.ExportState()
			r, err = e.PrepareRun([]RunRecord{{Rows: many(x, 1)}, {Rows: many(y, 1)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CommitRun(r); err == nil || !strings.Contains(err.Error(), "sliding window") {
				t.Fatalf("a windowed engine committed a two-record run: %v", err)
			}
			untouched("windowed engine")
		})
	}
}

// TestMutationLogCanonicalAcrossShards: one history of appends,
// deletes and window evictions exports the same added and removed logs
// at every shard count, each generation's records in packed-key order,
// so snapshot bytes depend on the history alone.
func TestMutationLogCanonicalAcrossShards(t *testing.T) {
	cards := []int{4, 5, 3, 6}
	schema := testSchema(t, cards)
	var first *State
	for _, shards := range []int{1, 2, 3} {
		e := NewSharded(schema, shards, Options{})
		rng := rand.New(rand.NewSource(5))
		live := map[string]int64{}
		for step := 0; step < 40; step++ {
			switch {
			case step == 30:
				e.SetWindow(900) // evicts; no delete follows, as live no longer tracks the engine
			case step%4 == 3 && step < 30:
				rows := drawDeletable(rng, live, 1+rng.Intn(80))
				if err := e.Delete(rows); err != nil {
					t.Fatal(err)
				}
				applyRef(live, rows, -1)
			default:
				rows := randomRows(rng, cards, 1+rng.Intn(600))
				if err := e.Append(rows); err != nil {
					t.Fatal(err)
				}
				applyRef(live, rows, 1)
			}
		}
		st := e.ExportState()
		if st.Removed.Recs == nil || st.Added.Recs == nil {
			t.Fatal("history left an empty mutation log")
		}
		for _, l := range []MutationLog{st.Added, st.Removed} {
			for i := 1; i < len(l.Recs); i++ {
				a, b := l.Recs[i-1], l.Recs[i]
				ka, kb := e.codec.PackedKeyString(a.Key), e.codec.PackedKeyString(b.Key)
				if a.Gen == b.Gen && (ka[1] > kb[1] || ka[1] == kb[1] && ka[0] >= kb[0]) {
					t.Fatalf("shards=%d: generation %d out of packed-key order", shards, a.Gen)
				}
			}
		}
		if first == nil {
			first = st
			continue
		}
		if !reflect.DeepEqual(st.Added, first.Added) || !reflect.DeepEqual(st.Removed, first.Removed) {
			t.Fatalf("shards=%d exports other mutation logs than shards=1", shards)
		}
	}
}
