package engine

import (
	"errors"
	"fmt"
	"sort"

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
// per combination and core. Coverage, MUPs and plans depend only on the
// multiplicity of each combination, so committing the net change is
// indistinguishable from applying the records one by one, for every
// reader that cannot stand between them. Append and Delete are runs of
// one record; WAL replay commits longer ones.
type Run struct {
	recs    []RunRecord
	appends int64 // append records
	deletes int64 // delete records
	rows    int64 // net row change
	muts    []*countstore.Flat
	// needs (per core, nil when no delete can overdraw) holds the
	// multiplicity a combination must have before the run for none of
	// its deletes to overdraw it at a point where a later append lifts
	// the count again; CommitRun checks each negative net as well.
	needs []*countstore.Flat
}

// runChunk is one worker's share of a run: a contiguous range of its
// rows, counted in record order into one signed table per core.
// deficit (per core, nil until needed) holds, for each combination an
// append lifts out of a negative running count within the chunk, how
// far below zero the count had fallen: the multiplicity the
// combination must have when the chunk starts for none of the chunk's
// deletes before that append to overdraw it. A combination whose count
// is still negative when the chunk ends owes its net as well, which
// the merge reads from muts when a later chunk lifts it.
type runChunk struct {
	muts    []*countstore.Flat
	deficit []*countstore.Flat
	err     error
}

// PrepareRun validates and counts a run of consecutive append and
// delete records, each of which the commit counts as one mutation,
// without changing the engine's data or reading its counts (only the
// cores' sizes, to size its tables). Each row is routed to
// its core and counted once, straight from the record bytes, on every
// worker for a run of inlineBatchRows rows or more. The run is refused
// when a record is not a whole number of rows or a value code is past
// its attribute's cardinality; CommitRun checks the deletes against the
// counts it commits onto.
func (e *ShardedEngine) PrepareRun(recs []RunRecord) (*Run, error) {
	dim, n := len(e.cards), len(e.cores)
	r := &Run{recs: recs}
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
	// Chunk 0's tables absorb the others in the merge, so they are
	// sized for the whole run.
	distinct := make([]int, n)
	e.mu.RLock()
	for c, core := range e.cores {
		distinct[c] = core.counts.Len()
	}
	e.mu.RUnlock()

	chunks := make([]runChunk, workers)
	count := func(w int) {
		ch := &chunks[w]
		rows := per
		if w == 0 {
			rows = total
		}
		ch.muts = make([]*countstore.Flat, n)
		for c := range ch.muts {
			hint := e.batchHint(rows / n)
			if distinct[c] > 0 {
				hint = min(hint, distinct[c]+16)
			}
			ch.muts[c] = countstore.NewFlat(hint)
		}
		ch.deficit = make([]*countstore.Flat, n)
		e.countRunChunk(recs, starts, w*per, min(total, (w+1)*per), ch)
	}
	fanOut(workers, count)
	// The chunks run in row order, so the first error is at the row
	// record-by-record replay would have stopped at.
	for _, ch := range chunks {
		if ch.err != nil {
			return nil, ch.err
		}
	}

	r.muts = make([]*countstore.Flat, n)
	r.needs = make([]*countstore.Flat, n)
	merge := func(c int) { r.muts[c], r.needs[c] = mergeRunCore(chunks, c) }
	if workers == 1 {
		for c := range r.muts {
			merge(c)
		}
	} else {
		fanOut(n, merge)
	}
	combos := 0
	for _, m := range r.muts {
		combos += m.Len()
	}
	e.observeRate(combos, total)
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
			// Only an append that lifts a negative running count marks
			// a low point; a delete touches the count table alone.
			if got := ch.muts[c].Add(k, sign); sign > 0 && got <= 0 {
				owe(&ch.deficit[c], k, 1-got)
			}
		}
	}
}

// owe raises the requirement for k in *need to at least req, making
// the table on first use.
func owe(need **countstore.Flat, k pattern.PackedKey, req int64) {
	if *need == nil {
		*need = countstore.NewFlat(0)
	}
	if req > (*need).Get(k) {
		(*need).Set(k, req)
	}
}

// mergeRunCore folds the chunks' tables for core c, in chunk order,
// into the run's net change and need: the multiplicity each
// combination must have before the run for none of its deletes to
// overdraw it (nil when no delete can). A chunk's low points are owed
// at the chunk's start, so the chunks before it pay toward them; a
// negative count at a chunk's end is a low point of the run when a
// later chunk lifts it, and is owed then. A low point no chunk lifts
// is the run's negative net, which CommitRun checks itself.
func mergeRunCore(chunks []runChunk, c int) (net, need *countstore.Flat) {
	net, need = chunks[0].muts[c], chunks[0].deficit[c]
	for _, ch := range chunks[1:] {
		if d := ch.deficit[c]; d != nil {
			d.Range(func(k pattern.PackedKey, short int64) {
				if req := short - net.Get(k); req > 0 {
					owe(&need, k, req)
				}
			})
		}
		ch.muts[c].Range(func(k pattern.PackedKey, n int64) {
			if prev := net.Add(k, n) - n; n > 0 && prev < 0 {
				owe(&need, k, -prev)
			}
		})
	}
	return net, need
}

// CommitRun checks a prepared run against the engine and applies it as
// one mutation under one write lock: the generation moves to the run's
// last record, the append and delete counters count its records, and
// each core applies its net table once. The mutation logs record each
// combination's net change once, at that last generation; a net of
// zero is not recorded. No reader, cached search or plan can stand at
// a generation inside the run, so the merged entries answer every
// question the logs are asked.
//
// A run whose deletes retract more of a combination than is present at
// their point in the run is refused, even if the run as a whole nets
// to a non-negative count, and leaves the engine untouched. So is a
// run of more than one record on an engine with a sliding window: the
// window evicts in arrival order, so its records must be committed one
// by one. A one-record run does the window's bookkeeping: an append
// pushes its rows onto the window and evicts past the bound, a delete
// tombstones the rows it retracts. A run commits at most once: a
// second CommitRun would apply it again.
func (e *ShardedEngine) CommitRun(r *Run) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.log != nil && len(r.recs) > 1 {
		return errors.New("engine: a run of more than one record cannot be committed to an engine with a sliding window")
	}
	if r.deletes > 0 {
		if err := e.checkDeletesLocked(r); err != nil {
			return err
		}
	}
	e.gen += uint64(len(r.recs))
	e.appends += r.appends
	e.deletes += r.deletes
	e.rows += r.rows
	logSize := e.opts.removedLogSize()
	if r.appends > 0 {
		e.added.recordGen(e.gen, r.muts, true, logSize)
	}
	if r.deletes > 0 {
		e.removed.recordGen(e.gen, r.muts, false, logSize)
	}
	if e.log != nil {
		if rec := r.recs[0]; rec.Delete {
			for _, m := range r.muts {
				m.Range(func(k pattern.PackedKey, n int64) {
					e.pendingDeletes.Add(k, -n)
					e.tombstones -= n
				})
			}
		} else {
			dim := len(e.cards)
			for off := 0; off < len(rec.Rows); off += dim {
				e.log.push(e.codec.PackedKey(rec.Rows[off : off+dim]))
			}
			e.evictIntoLocked(r.muts)
		}
	}
	e.applyCoresLocked(r.muts)
	return nil
}

// checkDeletesLocked refuses a run that would overdraw a combination:
// one whose multiplicity falls short of what the run needs before it
// starts, or of the magnitude of its negative net. Caller holds the
// write lock.
func (e *ShardedEngine) checkDeletesLocked(r *Run) error {
	var err error
	short := func(c int, k pattern.PackedKey, req int64) {
		if have := e.cores[c].multiplicity(k); err == nil && have < req {
			err = fmt.Errorf("engine: cannot delete %d row(s) of combination %v: only %d present",
				req, e.codec.Unpack(k), have)
		}
	}
	for c, m := range r.muts {
		if need := r.needs[c]; need != nil {
			need.Range(func(k pattern.PackedKey, req int64) { short(c, k, req) })
		}
		m.Range(func(k pattern.PackedKey, n int64) {
			if n < 0 {
				short(c, k, -n)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
