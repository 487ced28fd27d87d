package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/mup"
)

// refreshShape is the benchmark's refresh workload in process: 100 000
// AirBnB rows over 13 attributes (population 20190408, shuffled with
// seed 11) on 2 shard cores, τ = 100, and 100-row batches drawn from
// the rows past the preload.
type refreshShape struct {
	e       *ShardedEngine
	batches [][][]uint8
	opts    mup.Options
}

func newRefreshShape(tb testing.TB, workers int) *refreshShape {
	tb.Helper()
	const preload, batchRows, nBatches = 100000, 100, 256
	n := preload + nBatches*batchRows
	ds := datagen.AirBnB(2*n, 13, 20190408)
	rows := make([][]uint8, ds.NumRows())
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	rand.New(rand.NewSource(11)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	s := &refreshShape{
		e:       NewSharded(ds.Schema(), 2, Options{Workers: workers}),
		batches: make([][][]uint8, nBatches),
		opts:    mup.Options{Threshold: 100},
	}
	for i := range s.batches {
		lo := preload + i*batchRows
		s.batches[i] = rows[lo : lo+batchRows]
	}
	if err := s.e.Append(rows[:preload]); err != nil {
		tb.Fatal(err)
	}
	// The cold search fills the cache, and one append repairs it: the
	// state every round starts from.
	if _, err := s.e.MUPs(s.opts); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.mutate(0, true); err != nil {
		tb.Fatal(err)
	}
	return s
}

// apply appends or deletes batch k.
func (s *refreshShape) apply(k int, isAppend bool) error {
	b := s.batches[k%len(s.batches)]
	if isAppend {
		return s.e.Append(b)
	}
	return s.e.Delete(b)
}

// mutate applies batch k and answers the repaired MUPs.
func (s *refreshShape) mutate(k int, isAppend bool) (*mup.Result, error) {
	if err := s.apply(k, isAppend); err != nil {
		return nil, err
	}
	return s.e.MUPs(s.opts)
}

// TestRefreshReplayPinned replays 20 rounds of the refresh workload —
// append batch k, then delete batch k−1, each followed by the repaired
// MUPs — and pins the total coverage probes of the repairs and a digest
// of every repaired MUP set with its coverage values. Both were
// measured before the repair passes were made delta-sized; a change to
// either means the repair answers or probes differently.
func TestRefreshReplayPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-row replay")
	}
	const (
		wantProbes = 117587
		wantDigest = "6353e0d81aa5c12b013d534e2e35121078088f71a424ede931ff5b7775f7b02c"
	)
	s := newRefreshShape(t, 2)
	h := sha256.New()
	var probes int64
	var algs [2]string
	for k := 1; k <= 20; k++ {
		for i, isAppend := range []bool{true, false} {
			res, err := s.mutate(k-i, isAppend)
			if err != nil {
				t.Fatal(err)
			}
			algs[i] = res.Stats.Algorithm
			probes += res.Stats.CoverageProbes
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(len(res.MUPs)))
			h.Write(buf[:])
			for j, p := range res.MUPs {
				h.Write(p)
				binary.LittleEndian.PutUint64(buf[:], uint64(res.Cov[j]))
				h.Write(buf[:])
			}
		}
	}
	if algs != [2]string{"incremental-repair", "bidirectional-repair"} {
		t.Fatalf("the rounds ran %v, want the two repairs", algs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); probes != wantProbes || got != wantDigest {
		t.Errorf("20 rounds: %d probes, digest %s; want %d, %s", probes, got, wantProbes, wantDigest)
	}
}

// BenchmarkRefreshRepair times the repaired /mups of the refresh
// workload in process, one round per iteration: append batch k, then
// delete batch k−1. The append cell times the downward repair, the
// delete cell the bidirectional one, each with the fold of the pending
// mutations into the bases that precedes it; the mutations, and the
// other direction's repair, run off the clock. probes/op is the repair's
// coverage probes.
func BenchmarkRefreshRepair(b *testing.B) {
	for _, timed := range []string{"append", "delete"} {
		b.Run(timed, func(b *testing.B) {
			s := newRefreshShape(b, 0)
			var probes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, isAppend := range []bool{true, false} {
					b.StopTimer()
					if err := s.apply(i+1-j, isAppend); err != nil {
						b.Fatal(err)
					}
					on := isAppend == (timed == "append")
					if on {
						b.StartTimer()
					}
					res, err := s.e.MUPs(s.opts)
					if err != nil {
						b.Fatal(err)
					}
					if on {
						probes += res.Stats.CoverageProbes
					}
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
	}
}
