package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"coverage/internal/countstore"
	"coverage/internal/pattern"
)

// RunRecord is one append or delete record of a run: its rows packed
// back to back, one value code per attribute, the layout a WAL record
// stores them in, so a run is read straight from the log's bytes.
type RunRecord struct {
	Delete bool
	Rows   []byte
}

// A Run is a run of consecutive append and delete records prepared to
// commit as one mutation: the rows counted into one signed net change
// per combination and core, checked against the engine at the
// generation it was prepared on. Coverage, MUPs and plans depend only
// on the multiplicity of each combination, so committing the net
// change is indistinguishable from applying the records one by one,
// for every reader that cannot stand between them.
type Run struct {
	from    uint64 // engine generation the run was checked against
	records int    // the commit advances the generation by this
	appends int64  // append records
	deletes int64  // delete records
	rows    int64  // net row change
	muts    []*countstore.Flat
}

// runChunk is one worker's share of a run: a contiguous range of its
// rows, counted in record order into one signed table per core.
// deficit (per core, nil until needed) holds, for each combination
// whose running count within the chunk falls below zero, how far it
// falls: the multiplicity the combination must have when the chunk
// starts for none of the chunk's deletes to overdraw it.
type runChunk struct {
	muts    []*countstore.Flat
	deficit []*countstore.Flat
	err     error
}

// PrepareRun validates and counts a run of consecutive append and
// delete records, each of which the commit counts as one mutation, and
// checks it against the engine without changing it. Each row is routed
// to its core and counted once, straight from the record bytes, on
// every worker for a run of inlineBatchRows rows or more. The run is
// refused, as the records would be one by one, when a value code is
// past its attribute's cardinality, or when a delete retracts more of
// a combination than is present at its point in the run, even if the
// run as a whole nets to a non-negative count. An engine with a sliding
// window refuses every run: the window evicts in arrival order, so its
// records must be applied one by one.
func (e *ShardedEngine) PrepareRun(recs []RunRecord) (*Run, error) {
	dim, n := len(e.cards), len(e.cores)
	r := &Run{records: len(recs)}
	starts := make([]int, len(recs)+1)
	for i, rec := range recs {
		if len(rec.Rows) == 0 || len(rec.Rows)%dim != 0 {
			return nil, fmt.Errorf("engine: run record %d holds %d bytes, not a positive number of %d-value rows", i, len(rec.Rows), dim)
		}
		rows := len(rec.Rows) / dim
		starts[i+1] = starts[i] + rows
		if rec.Delete {
			r.deletes++
			r.rows -= int64(rows)
		} else {
			r.appends++
			r.rows += int64(rows)
		}
	}
	total := starts[len(recs)]

	workers := 1
	if total >= inlineBatchRows {
		workers = min(e.opts.workers(), total)
	}
	per := (total + workers - 1) / workers
	// A chunk's table per core is sized by the measured combos-per-row
	// rate, capped by the core's distinct combinations when it has
	// some: a long run over a settled engine touches few new ones.
	hints := make([]int, n)
	e.mu.RLock()
	for c, core := range e.cores {
		hints[c] = e.batchHint(per / n)
		if d := core.counts.Len(); d > 0 {
			hints[c] = min(hints[c], d+16)
		}
	}
	e.mu.RUnlock()

	chunks := make([]runChunk, workers)
	count := func(w int) {
		ch := &chunks[w]
		ch.muts = make([]*countstore.Flat, n)
		for c := range ch.muts {
			ch.muts[c] = countstore.NewFlat(hints[c])
		}
		ch.deficit = make([]*countstore.Flat, n)
		e.countRunChunk(recs, starts, w*per, min(total, (w+1)*per), ch)
	}
	if workers == 1 {
		count(0)
	} else {
		var wg sync.WaitGroup
		for w := range chunks {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				count(w)
			}(w)
		}
		wg.Wait()
	}
	// The chunks run in row order, so the first error is at the row
	// record-by-record replay would have stopped at.
	for _, ch := range chunks {
		if ch.err != nil {
			return nil, ch.err
		}
	}

	needs := make([]*countstore.Flat, n)
	r.muts = make([]*countstore.Flat, n)
	for c := range r.muts {
		r.muts[c], needs[c] = mergeRunCore(chunks, c)
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.log != nil {
		return nil, errors.New("engine: a run cannot be committed to an engine with a sliding window")
	}
	r.from = e.gen
	for c, need := range needs {
		if need == nil {
			continue
		}
		var err error
		need.Range(func(k pattern.PackedKey, req int64) {
			if have := e.cores[c].multiplicity(k); err == nil && have < req {
				err = fmt.Errorf("engine: run deletes combination %v past its count: %d present where %d are needed",
					e.codec.Unpack(k), have, req)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// countRunChunk counts global rows [lo, hi) of the run into ch, in
// record order. starts[i] is the global index of record i's first row.
// It stops at the first row with a value code past its attribute's
// cardinality.
func (e *ShardedEngine) countRunChunk(recs []RunRecord, starts []int, lo, hi int, ch *runChunk) {
	dim, n := len(e.cards), len(e.cores)
	row := lo
	for r := sort.SearchInts(starts, lo+1) - 1; row < hi; r++ {
		rec := &recs[r]
		sign := int64(1)
		if rec.Delete {
			sign = -1
		}
		for end := min(hi, starts[r+1]); row < end; row++ {
			off := (row - starts[r]) * dim
			vals := rec.Rows[off : off+dim : off+dim]
			for a, v := range vals {
				if int(v) >= e.cards[a] {
					ch.err = fmt.Errorf("engine: run record %d row %d: value %d for attribute %q exceeds cardinality %d",
						r, row-starts[r], v, e.schema.Attr(a).Name, e.cards[a])
					return
				}
			}
			c := shardOfRow(vals, n)
			k := e.codec.PackedKey(vals)
			if got := ch.muts[c].Add(k, sign); sign < 0 && got < 0 {
				d := ch.deficit[c]
				if d == nil {
					d = countstore.NewFlat(0)
					ch.deficit[c] = d
				}
				if -got > d.Get(k) {
					d.Set(k, -got)
				}
			}
		}
	}
}

// mergeRunCore folds the chunks' tables for core c, in chunk order,
// into the run's net change and need: the multiplicity each
// combination must have before the run for none of its deletes to
// overdraw it (nil when no delete can). A chunk's deficit is owed at
// the chunk's start, so the chunks before it pay toward it.
func mergeRunCore(chunks []runChunk, c int) (net, need *countstore.Flat) {
	net, need = chunks[0].muts[c], chunks[0].deficit[c]
	for _, ch := range chunks[1:] {
		if d := ch.deficit[c]; d != nil {
			d.Range(func(k pattern.PackedKey, short int64) {
				req := short - net.Get(k)
				if req <= 0 {
					return
				}
				if need == nil {
					need = countstore.NewFlat(0)
				}
				if req > need.Get(k) {
					need.Set(k, req)
				}
			})
		}
		ch.muts[c].Range(func(k pattern.PackedKey, n int64) { net.Add(k, n) })
	}
	return net, need
}

// CommitRun applies a prepared run as one mutation under one write
// lock: the generation moves to the run's last record, the append and
// delete counters count its records, and each core applies its net
// table once. The mutation logs record each combination's net change
// once, at that last generation; a net of zero is not recorded. No
// reader, cached search or plan can stand at a generation inside the
// run, so the merged entries answer every question the logs are asked.
// A run prepared at another generation is refused and the engine left
// untouched; every mutation, a window change included, advances the
// generation, so nothing can have changed what the run was checked
// against.
func (e *ShardedEngine) CommitRun(r *Run) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen != r.from {
		return fmt.Errorf("engine: run prepared at generation %d no longer applies at generation %d", r.from, e.gen)
	}
	e.gen += uint64(r.records)
	e.appends += r.appends
	e.deletes += r.deletes
	e.rows += r.rows
	logSize := e.opts.removedLogSize()
	e.added.recordGen(e.gen, r.muts, true, logSize)
	e.removed.recordGen(e.gen, r.muts, false, logSize)
	e.applyCoresLocked(r.muts)
	return nil
}
