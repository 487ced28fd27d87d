package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"coverage/internal/dataset"
)

// probeTenant is one of the three datasets the probe workload reads.
type probeTenant struct {
	id      string
	schema  *dataset.Schema
	preload [][]uint8
	// batches are the rows the write trickle appends and deletes again.
	batches  [][][]uint8
	requests []*coverageRequest

	m    *model
	base *model // the preload alone, built when the checks first need it
	// version is a sequence lock over the tenant's state: odd while a
	// mutation is in flight, and half of it is the number of mutations
	// completed. A /coverage answer can be checked exactly only if the
	// version was even and unchanged around the request.
	version atomic.Int64
}

// probeSample is a /coverage answer kept for checking after the run.
type probeSample struct {
	tenant, request int
	mutations       int64 // mutations completed on the tenant when it was answered
	got             []int64
}

// probe is the read path: two clients send 64-pattern /coverage
// batches in sweeps of one request per tenant, over three tenants of
// different shape. A request costs 0.9 to 1.6 ms depending on the
// tenant, so the primary operation is the sweep: its latency, the sum
// of its three requests, has one mode where single requests have three.
// After every writeEvery-th sweep client 1 also sends a 100-row
// /append, and the next time deletes the same rows.
//
// A probe costs a look-up in the tenant's base tables plus a scan of
// its delta table, which keeps an entry for every combination mutated
// since the last compaction, deleted ones too. So that the cost of a
// probe does not drift while it is measured, set-up ends by folding each
// tenant's delta (a /mups above the row count: a one-pattern search)
// and taking the write trickle once through all of its probeBatches
// batches per tenant; from then on the trickle revisits the same few
// hundred delta entries, the delta path stays live at constant size,
// and no compaction falls into the measured phase.
type probe struct {
	t          *tally
	ts         []*probeTenant
	writeEvery int
	keepEvery  int

	before  []*tenantCounters
	pairs   int // append/delete pairs started
	mutated int64
	samples [2][]probeSample
	obs     map[string]float64
}

func newProbe(seed int64, scale float64, t *tally) workload {
	const spare = probeBatches * batchRows // rows kept aside for the write trickle
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	w := &probe{t: t, writeEvery: 16, keepEvery: 193}
	if scale < 1 {
		w.keepEvery = 17 // the in-test pass sends too few requests for 193
	}
	add := func(id string, n int, gen generator) {
		n = scaled(n, scale)
		c := gen(n+spare, seed)
		w.ts = append(w.ts, &probeTenant{
			id:       id,
			schema:   c.schema,
			preload:  c.rows[:n],
			batches:  batchesOf(c.rows[n:]),
			requests: coverageRequests(rng, c.schema, 256),
		})
	}
	add("airbnb13", 100000, genAirBnB(13))
	add("bluenile7", 116300, genBlueNile)
	add("zipf10", 100000, genZipf10)
	return w
}

// probeBatches is how many 100-row batches per tenant the write trickle
// cycles through.
const probeBatches = 4

func (w *probe) clients() int    { return 2 }
func (w *probe) primary() string { return "sweep" }

func (w *probe) setup(x executor, rec *recorder) error {
	w.obs = map[string]float64{}
	w.pairs, w.mutated = 0, 0
	w.samples = [2][]probeSample{}
	w.before = make([]*tenantCounters, len(w.ts))
	for _, t := range w.ts {
		t.m = newModel(t.schema)
		t.version.Store(0)
		d, err := x.create(t.id, t.schema)
		if err != nil {
			return err
		}
		rec.add("create", d)
		if d, err = x.bulk(t.id, t.preload); err != nil {
			return err
		}
		rec.addBulk(d, len(t.preload))
		t.m.add(t.preload)
		// What the bulk load left in the delta table is folded into the
		// base: above the row count the root pattern is the only MUP.
		if _, _, err := x.mups(t.id, int64(len(t.preload))+1); err != nil {
			return err
		}
	}
	// Every batch of the trickle is appended and deleted once, so the
	// delta tables already hold all the entries they ever will.
	for range 2 * probeBatches * len(w.ts) {
		if err := w.write(x, newRecorder()); err != nil {
			return err
		}
	}
	w.mutated = 0
	for i, t := range w.ts {
		// One answered batch per tenant, so that no measured request is
		// the tenant's first.
		if _, _, err := x.coverage(t.id, t.requests[0]); err != nil {
			return err
		}
		var err error
		if w.before[i], err = x.counters(t.id); err != nil {
			return err
		}
	}
	return nil
}

func (w *probe) drive(x executor, client int, lim limiter, rec *recorder) error {
	sent := 0
	for sweep := 0; !lim.done(sweep); sweep++ {
		var total time.Duration
		for i := range w.ts {
			ti := (i + client) % len(w.ts)
			t := w.ts[ti]
			ri := (2*sweep + client) % len(t.requests)
			v0 := t.version.Load()
			got, d, err := x.coverage(t.id, t.requests[ri])
			if err != nil {
				return err
			}
			rec.add("coverage", d)
			total += d
			sent++
			if sent%w.keepEvery == 0 && v0%2 == 0 && t.version.Load() == v0 {
				w.samples[client] = append(w.samples[client], probeSample{tenant: ti, request: ri, mutations: v0 / 2, got: got})
			}
		}
		rec.add("sweep", total)
		if client == 1 && sweep%w.writeEvery == w.writeEvery-1 {
			if err := w.write(x, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// write is one step of the trickle: pair k appends batch k/3 to tenant
// k%3, the next step deletes it again.
func (w *probe) write(x executor, rec *recorder) error {
	k := w.pairs / 2
	t := w.ts[k%len(w.ts)]
	b := t.batches[(k/len(w.ts))%len(t.batches)]
	t.version.Add(1)
	defer t.version.Add(1)
	if w.pairs%2 == 0 {
		d, err := x.appendRows(t.id, b)
		if err != nil {
			return err
		}
		rec.add("append", d)
		t.m.add(b)
	} else {
		d, err := x.deleteRows(t.id, b)
		if err != nil {
			return err
		}
		rec.add("delete", d)
		t.m.remove(b)
	}
	w.pairs++
	w.mutated += batchRows
	return nil
}

func (w *probe) finish(x executor, rec *recorder) error {
	var walBytes, walRecords int64
	for i, t := range w.ts {
		after, err := x.counters(t.id)
		if err != nil {
			return err
		}
		counterDelta(w.obs, w.before[i], after)
		counterLevels(w.obs, after)
		walBytes += after.WALBytes - w.before[i].WALBytes
		walRecords += after.WALRecords - w.before[i].WALRecords
	}
	w.obs["persist.wal_bytes"] = float64(walBytes)
	w.obs["persist.wal_records"] = float64(walRecords)
	return nil
}

func (w *probe) tenants() map[string]*model {
	out := map[string]*model{}
	for _, t := range w.ts {
		out[t.id] = t.m
	}
	return out
}

func (w *probe) mutatedRows() int64           { return w.mutated }
func (w *probe) observed() map[string]float64 { return w.obs }

// verify checks the kept answers against the state they were given
// under — the preload, plus the batch of the tenant's current pair when
// an odd number of mutations had completed — then probes the recovered
// server once per tenant.
func (w *probe) verify(x executor) error {
	for _, samples := range w.samples {
		for _, s := range samples {
			pt := w.ts[s.tenant]
			if pt.base == nil {
				pt.base = newModel(pt.schema)
				pt.base.add(pt.preload)
			}
			m := pt.base
			if s.mutations%2 == 1 {
				m = m.clone()
				m.add(pt.batches[int(s.mutations/2)%len(pt.batches)])
			}
			w.t.check(m.checkCoverage(pt.requests[s.request].patterns, s.got))
		}
	}
	for _, pt := range w.ts {
		req := pt.requests[1]
		got, _, err := x.coverage(pt.id, req)
		if err != nil {
			return fmt.Errorf("probing the recovered server: %w", err)
		}
		w.t.check(pt.m.checkCoverage(req.patterns, got))
	}
	return nil
}
