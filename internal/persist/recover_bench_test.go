package persist

import (
	"fmt"
	"testing"
	"time"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/engine"
)

// BenchmarkRecover prices Store.Recover on the shapes the service
// restarts from, with SyncWAL off:
//
//   - ingest: a 100 000-row AirBnB snapshot at 2 shards plus 2 000
//     append records of 100 rows each;
//   - chain: the same snapshot, then 8 deltas (the default
//     MaxDeltaChain) of 25 append records each, then a tail of 200
//     append records, all of 100 rows;
//   - refresh: an empty snapshot, 25 bulk records of 4 096 rows, then
//     tail records of 100 rows that alternately append a batch and
//     delete it again.
//
// Each iteration opens the directory afresh and recovers it; closing
// the store (a WAL fsync) is not timed. ms/op is the recovery's
// wall-clock time, records/op the WAL records it replayed and
// deltas/op the delta files it applied.
func BenchmarkRecover(b *testing.B) {
	b.Run("ingest", func(b *testing.B) {
		dir := b.TempDir()
		ds := datagen.AirBnB(100000, 13, 1)
		s := openStore(b, dir)
		if err := s.Attach(engine.NewFromDataset(ds, engine.Options{Shards: 2})); err != nil {
			b.Fatal(err)
		}
		pool := datagen.AirBnB(200000, 13, 2)
		for r := 0; r < 2000; r++ {
			if err := s.Append(datasetRows(pool, r*100, 100)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		benchRecover(b, dir, 2)
	})
	b.Run("chain", func(b *testing.B) {
		dir := b.TempDir()
		ds := datagen.AirBnB(100000, 13, 1)
		s := openStore(b, dir)
		if err := s.Attach(engine.NewFromDataset(ds, engine.Options{Shards: 2})); err != nil {
			b.Fatal(err)
		}
		pool := datagen.AirBnB(40000, 13, 2)
		r := 0
		appendRecords := func(n int) {
			for ; n > 0; n-- {
				if err := s.Append(datasetRows(pool, r*100, 100)); err != nil {
					b.Fatal(err)
				}
				r++
			}
		}
		for link := 0; link < 8; link++ {
			appendRecords(25)
			if res, err := s.Snapshot(); err != nil || !res.Delta {
				b.Fatalf("link %d: snapshot %+v, %v; want a delta", link, res, err)
			}
		}
		appendRecords(200)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		benchRecover(b, dir, 2)
	})
	for _, tail := range []int{0, 200, 1000} {
		b.Run(fmt.Sprintf("refresh/tail=%d", tail), func(b *testing.B) {
			dir := b.TempDir()
			pool := datagen.AirBnB(25*4096+100*tail, 13, 3)
			s := openStore(b, dir)
			if err := s.Attach(engine.New(pool.Schema(), engine.Options{Shards: 2})); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 25; r++ {
				if err := s.Append(datasetRows(pool, r*4096, 4096)); err != nil {
					b.Fatal(err)
				}
			}
			for r := 0; r < tail; r += 2 {
				rows := datasetRows(pool, 25*4096+r*100, 100)
				if err := s.Append(rows); err != nil {
					b.Fatal(err)
				}
				if err := s.Delete(rows); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			benchRecover(b, dir, 2)
		})
	}
}

// datasetRows returns n rows of ds from row lo on.
func datasetRows(ds *dataset.Dataset, lo, n int) [][]uint8 {
	rows := make([][]uint8, n)
	for i := range rows {
		rows[i] = ds.Row(lo + i)
	}
	return rows
}

// benchRecover recovers dir b.N times at the given shard count and
// reports the mean recovery time and the records each replayed.
func benchRecover(b *testing.B, dir string, shards int) {
	var elapsed time.Duration
	replayed, deltas := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Engine: engine.Options{Shards: shards}})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		_, info, err := s.Recover()
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		replayed, deltas = info.Replayed, info.DeltasApplied
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(replayed), "records/op")
	b.ReportMetric(float64(deltas), "deltas/op")
}
