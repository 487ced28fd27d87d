package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"coverage/internal/dataset"
)

const ingestTenant = "airbnb13"

// ingest is the durable write path under two writers: every request is
// a 100-row /append that is acknowledged only after its group's fsync.
// Client 0 takes a /snapshot inline after every snapEvery of its own
// acknowledged batches, so snapshot work and WAL rotation happen at
// fixed points of the op sequence, not on a timer. After the clients
// stop, one more snapshot and a fixed tail of batches give the crash a
// snapshot chain plus a WAL tail of known length to recover from.
type ingest struct {
	t         *tally
	schema    *dataset.Schema
	preload   [][]uint8
	batches   [][][]uint8
	probes    []*coverageRequest
	snapEvery int
	tail      int

	m            *model
	acked        [2][]int // batch indexes acknowledged, per client
	wal          walMeter
	before       *tenantCounters
	snapshotting atomic.Bool
	// duringSnapshot is the slowest /append that overlapped a snapshot.
	duringSnapshot atomic.Int64
	obs            map[string]float64
}

func newIngest(seed int64, scale float64, t *tally) workload {
	preload := scaled(100000, scale)
	// The pool the writers draw from; a run that outlasts it wraps
	// around, which repeats rows but changes nothing else.
	pool := scaled(1200000, scale)
	c := genAirBnB(13)(preload+pool, seed)
	w := &ingest{
		t:         t,
		schema:    c.schema,
		preload:   c.rows[:preload],
		batches:   batchesOf(c.rows[preload:]),
		snapEvery: max(int(1000*scale), 5),
		tail:      max(int(2000*scale), 5),
	}
	w.probes = coverageRequests(rand.New(rand.NewSource(seed^0x696e67)), w.schema, 4)
	return w
}

func (w *ingest) clients() int    { return 2 }
func (w *ingest) primary() string { return "append" }

func (w *ingest) setup(x executor, rec *recorder) error {
	w.m = newModel(w.schema)
	w.acked = [2][]int{}
	w.obs = map[string]float64{}
	w.duringSnapshot.Store(0)
	if d, err := x.create(ingestTenant, w.schema); err != nil {
		return err
	} else {
		rec.add("create", d)
	}
	d, err := x.bulk(ingestTenant, w.preload)
	if err != nil {
		return err
	}
	rec.addBulk(d, len(w.preload))
	w.m.add(w.preload)
	// Two acknowledged batches so the first measured request does not
	// pay for the connection or the first WAL extension.
	for i := 0; i < 2; i++ {
		b := w.batches[len(w.batches)-1-i]
		if _, err := x.appendRows(ingestTenant, b); err != nil {
			return err
		}
		w.m.add(b)
	}
	if w.before, err = x.counters(ingestTenant); err != nil {
		return err
	}
	w.wal.start(w.before)
	return nil
}

func (w *ingest) drive(x executor, client int, lim limiter, rec *recorder) error {
	usable := len(w.batches) - 2 // the last two went to the warm-up
	for n := 0; !lim.done(n); n++ {
		idx := (client + 2*n) % usable
		busy := w.snapshotting.Load()
		d, err := x.appendRows(ingestTenant, w.batches[idx])
		if err != nil {
			return err
		}
		rec.add("append", d)
		w.acked[client] = append(w.acked[client], idx)
		if busy || w.snapshotting.Load() {
			for {
				old := w.duringSnapshot.Load()
				if int64(d) <= old || w.duringSnapshot.CompareAndSwap(old, int64(d)) {
					break
				}
			}
		}
		if client == 0 && (n+1)%w.snapEvery == 0 {
			if err := w.takeSnapshot(x, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *ingest) takeSnapshot(x executor, rec *recorder) error {
	c, err := x.counters(ingestTenant)
	if err != nil {
		return err
	}
	w.wal.fold(c)
	w.snapshotting.Store(true)
	d, err := x.snapshot(ingestTenant)
	w.snapshotting.Store(false)
	if err != nil {
		return err
	}
	rec.add("snapshot", d)
	return nil
}

func (w *ingest) finish(x executor, rec *recorder) error {
	if err := w.takeSnapshot(x, rec); err != nil {
		return err
	}
	usable := len(w.batches) - 2
	next := len(w.acked[0]) + len(w.acked[1])
	for i := 0; i < w.tail; i++ {
		idx := (next + i) % usable
		d, err := x.appendRows(ingestTenant, w.batches[idx])
		if err != nil {
			return err
		}
		rec.add("append_tail", d)
		w.acked[0] = append(w.acked[0], idx)
	}
	after, err := x.counters(ingestTenant)
	if err != nil {
		return err
	}
	w.wal.fold(after)
	counterDelta(w.obs, w.before, after)
	counterLevels(w.obs, after)
	w.obs["persist.wal_bytes"] = float64(w.wal.bytes)
	w.obs["persist.wal_records"] = float64(w.wal.records)
	// The model is brought up to date here, outside the measured
	// phase, from the record of what was acknowledged.
	for _, acked := range w.acked {
		for _, idx := range acked {
			w.m.add(w.batches[idx])
		}
	}
	return nil
}

func (w *ingest) tenants() map[string]*model { return map[string]*model{ingestTenant: w.m} }

func (w *ingest) mutatedRows() int64 {
	return int64(len(w.acked[0])+len(w.acked[1])) * batchRows
}

func (w *ingest) observed() map[string]float64 {
	w.obs["persist.snapshot_worst_append_ms"] = float64(w.duringSnapshot.Load()) / 1e6
	return w.obs
}

// verify probes the recovered server with 256 fixed patterns and
// compares each count with a scan of the rows that were acknowledged.
func (w *ingest) verify(x executor) error {
	for _, req := range w.probes {
		got, _, err := x.coverage(ingestTenant, req)
		if err != nil {
			return fmt.Errorf("probing the recovered server: %w", err)
		}
		w.t.check(w.m.checkCoverage(req.patterns, got))
	}
	return nil
}
