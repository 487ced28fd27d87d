package persist

import (
	"fmt"
	"sync"
	"testing"

	"coverage/internal/engine"
)

// benchRows builds a fixed batch matching the 3-attr test schema.
func benchRows(n int) [][]uint8 {
	rows := make([][]uint8, n)
	for i := range rows {
		rows[i] = []uint8{uint8(i % 2), uint8(i % 3), uint8(i % 4)}
	}
	return rows
}

// TestAppendRecordAllocs pins the satellite win: the scratch-buffer
// encode makes the steady-state append path allocation-free. The
// warm-up call inside AllocsPerRun grows the scratch once; measured
// iterations must then reuse it.
func TestAppendRecordAllocs(t *testing.T) {
	dir := t.TempDir()
	w, err := createWALSegment(dir, 0, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rows := benchRows(16)
	var gen uint64
	avg := testing.AllocsPerRun(50, func() {
		gen++
		if err := w.appendRecord(opAppend, gen, rows, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("appendRecord allocates %.1f objects per record; the scratch path must be allocation-free", avg)
	}
}

// BenchmarkWALAppendRecord measures the per-record encode+write cost
// (sync off, so the fsync does not mask the encode); the allocs/op
// column is the tracked satellite metric.
func BenchmarkWALAppendRecord(b *testing.B) {
	for _, nrows := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("rows=%d", nrows), func(b *testing.B) {
			dir := b.TempDir()
			w, err := createWALSegment(dir, 0, 3, false)
			if err != nil {
				b.Fatal(err)
			}
			defer w.close()
			rows := benchRows(nrows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.appendRecord(opAppend, uint64(i+1), rows, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreAppend prices the commit path without HTTP: each of
// `writers` goroutines submits 100-row Append batches back to back, with the
// WAL fsynced per group or not. records/commit is the mean number of
// append requests one group carried — 1 means no write was shared.
func BenchmarkStoreAppend(b *testing.B) {
	rows := benchRows(100)
	for _, syncWAL := range []bool{true, false} {
		for _, writers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("sync=%v/writers=%d", syncWAL, writers), func(b *testing.B) {
				s, err := Open(b.TempDir(), Options{SyncWAL: syncWAL})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Attach(engine.New(testSchema(), engine.Options{})); err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					n := b.N / writers
					if w < b.N%writers {
						n++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range n {
							if err := s.Append(rows); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				st := s.Stats()
				if st.WALGroupCommits > 0 {
					b.ReportMetric(float64(st.WALGroupRecords)/float64(st.WALGroupCommits), "records/commit")
				}
			})
		}
	}
}
