package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// randomPatterns draws n patterns over cards, each attribute fixed to a
// random value with probability 1/2, plus the all-wildcard pattern.
func randomPatterns(rng *rand.Rand, cards []int, n int) []pattern.Pattern {
	ps := []pattern.Pattern{pattern.All(len(cards))}
	for len(ps) < n {
		p := pattern.All(len(cards))
		for i, c := range cards {
			if rng.Intn(2) == 0 {
				p[i] = uint8(rng.Intn(c))
			}
		}
		ps = append(ps, p)
	}
	return ps
}

// TestBulkLoadCompactsOnRead: each probe-shaped tenant loaded in
// 4 096-row appends — the chunking of an NDJSON bulk load, and of the
// WAL records its replay applies — rebuilds no base while it loads,
// and the first coverage batch after it rebuilds each shard's base at
// most once, then answers exactly as an engine loaded in one batch.
func TestBulkLoadCompactsOnRead(t *testing.T) {
	const rows, chunk, shards = 100000, 4096, 2
	for _, tn := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"airbnb13", datagen.AirBnB(rows, 13, 42)},
		{"bluenile7", datagen.BlueNile(rows, 42)},
		{"zipf10", datagen.Zipf(rows, []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}, 1.2, 42)},
	} {
		t.Run(tn.name, func(t *testing.T) {
			all := make([][]uint8, tn.ds.NumRows())
			for i := range all {
				all[i] = tn.ds.Row(i)
			}
			chunked := NewSharded(tn.ds.Schema(), shards, Options{})
			for lo := 0; lo < len(all); lo += chunk {
				if err := chunked.Append(all[lo:min(lo+chunk, len(all))]); err != nil {
					t.Fatal(err)
				}
			}
			if c := chunked.Stats().Compactions; c != 0 {
				t.Fatalf("the load compacted %d times, want 0", c)
			}
			one := NewSharded(tn.ds.Schema(), shards, Options{})
			if err := one.Append(all); err != nil {
				t.Fatal(err)
			}

			ps := randomPatterns(rand.New(rand.NewSource(7)), tn.ds.Cards(), 64)
			got, err := chunked.CoverageBatch(ps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := one.CoverageBatch(ps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				if got[i] != want[i] {
					t.Fatalf("cov(%v) = %d after the chunked load, %d after one batch", ps[i], got[i], want[i])
				}
			}
			st := chunked.Stats()
			if st.Compactions > shards {
				t.Errorf("the load and its first read compacted %d times, want at most %d", st.Compactions, shards)
			}
			for i, sh := range st.Shards {
				if sh.Compactions > 1 {
					t.Errorf("shard %d rebuilt its base %d times, want at most once", i, sh.Compactions)
				}
			}
			if n := chunked.Compact(); n != 0 {
				t.Errorf("%d cores past the threshold after the first read", n)
			}
		})
	}
}

// TestConcurrentReadersCompact races coverage readers against
// appenders whose deltas keep crossing a low compaction threshold, so
// readers race each other to rebuild the same cores. Every batch must
// stay consistent with the row count of its own generation, and the
// final answers must equal an engine loaded in one batch. Run it with
// -race.
func TestConcurrentReadersCompact(t *testing.T) {
	cards := []int{4, 3, 5, 2, 6}
	schema := testSchema(t, cards)
	e := NewSharded(schema, 3, Options{CompactMinDistinct: 8, CompactFraction: 0.05})
	rng := rand.New(rand.NewSource(11))
	const writers, readers, batches = 2, 4, 40
	loads := make([][][][]uint8, writers)
	for w := range loads {
		for range batches {
			loads[w] = append(loads[w], randomRows(rng, cards, 50))
		}
	}
	ps := randomPatterns(rng, cards, 32)
	// marginals are the level-1 patterns on attribute 0: their counts
	// partition the rows.
	marginals := make([]pattern.Pattern, cards[0])
	for v := range marginals {
		marginals[v] = pattern.All(len(cards))
		marginals[v][0] = uint8(v)
	}

	var writersDone sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+readers)
	for _, load := range loads {
		writersDone.Add(1)
		go func(load [][][]uint8) {
			defer writersDone.Done()
			for _, rows := range load {
				if err := e.Append(rows); err != nil {
					errs <- err
					return
				}
			}
		}(load)
	}
	var readersDone sync.WaitGroup
	for range readers {
		readersDone.Add(1)
		go func() {
			defer readersDone.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, rows, err := e.CoverageBatchRows(marginals)
				if err != nil {
					errs <- err
					return
				}
				var sum int64
				for _, n := range out {
					sum += n
				}
				if sum != rows {
					errs <- fmt.Errorf("marginals sum to %d in a batch reporting %d rows", sum, rows)
					return
				}
				if _, err := e.CoverageBatch(ps); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	writersDone.Wait()
	close(stop)
	readersDone.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var all [][]uint8
	for _, load := range loads {
		for _, rows := range load {
			all = append(all, rows...)
		}
	}
	ref := NewSharded(schema, 3, Options{})
	if err := ref.Append(all); err != nil {
		t.Fatal(err)
	}
	got, err := e.CoverageBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CoverageBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got[i] != want[i] {
			t.Fatalf("cov(%v) = %d, one-batch engine says %d", ps[i], got[i], want[i])
		}
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("precondition: the reads should have compacted")
	}
	if n := e.Compact(); n != 0 {
		t.Errorf("%d cores past the threshold after a read", n)
	}
}
