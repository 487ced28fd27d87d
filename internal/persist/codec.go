package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// encoder builds the snapshot payload. All integers are varints; raw
// combination keys are fixed at the schema dimension, so no per-key
// length prefix is needed.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)     { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) raw(b []byte)       { e.buf = append(e.buf, b...) }
func (e *encoder) rawString(s string) { e.buf = append(e.buf, s...) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// keyCounts emits a keyed table: its length, then each raw key and its
// count, in the list's (strictly increasing) order.
func (e *encoder) keyCounts(list []engine.KeyCount) {
	e.uvarint(uint64(len(list)))
	for _, kc := range list {
		e.rawString(kc.Key)
		e.varint(kc.Count)
	}
}

// decoder consumes a snapshot payload. Errors are sticky: after the
// first failure every accessor returns zero values, and the caller
// checks err once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// length reads a collection length and sanity-bounds it against the
// remaining payload so corrupted counts cannot trigger huge
// allocations.
func (d *decoder) length(elemSize int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64((len(d.b)-d.off)/elemSize) {
		d.fail("length %d exceeds remaining payload at offset %d", v, d.off)
		return 0
	}
	return int(v)
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("raw read of %d bytes at offset %d overruns payload", n, d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) rawString(n int) string { return string(d.raw(n)) }

func (d *decoder) str() string {
	n := d.length(1)
	return string(d.raw(n))
}

// keyCounts reads a keyed table of dim-byte keys, which must strictly
// increase: a repeated or backward key is ErrCorrupt. An empty table is
// nil.
func (d *decoder) keyCounts(dim int) []engine.KeyCount {
	n := d.length(dim + 1)
	if n == 0 {
		return nil
	}
	list := make([]engine.KeyCount, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		kc := engine.KeyCount{Key: d.rawString(dim), Count: d.varint()}
		if i > 0 && list[i-1].Key >= kc.Key {
			d.fail("keyed table not strictly increasing at entry %d", i)
		}
		list = append(list, kc)
	}
	return list
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

// encodeState serializes an engine.State deterministically in the v3
// format: one count section per shard list and the pending deletes,
// each in the state's sorted key order, so equivalent states encode to
// identical bytes and snapshot→restore→snapshot is a fixed point.
func encodeState(st *engine.State) []byte {
	distinct := 0
	for _, list := range st.Counts {
		distinct += len(list)
	}
	e := &encoder{buf: make([]byte, 0, 64+distinct*(len(st.Attrs)+2))}
	dim := len(st.Attrs)
	e.uvarint(uint64(dim))
	for _, a := range st.Attrs {
		e.str(a.Name)
		e.uvarint(uint64(len(a.Values)))
		for _, v := range a.Values {
			e.str(v)
		}
	}

	e.uvarint(uint64(len(st.Counts)))
	for _, list := range st.Counts {
		e.keyCounts(list)
	}

	e.varint(st.Rows)
	e.uvarint(st.Generation)

	e.uvarint(uint64(st.Window))
	e.varint(st.Tombstones)
	e.uvarint(uint64(len(st.WindowLog)))
	for _, k := range st.WindowLog {
		e.rawString(k)
	}
	e.keyCounts(st.PendingDeletes)

	encodeLog(e, st.Removed)
	encodeLog(e, st.Added)
	encodeSearches(e, st.Cache)

	for _, c := range []int64{
		st.Counters.Appends, st.Counters.Deletes, st.Counters.Evictions,
		st.Counters.Compactions, st.Counters.FullSearches, st.Counters.Repairs,
		st.Counters.BidirectionalRepairs, st.Counters.CacheHits,
	} {
		e.varint(c)
	}

	// The remediation plan-cache sections plus the plan counters.
	encodePlans(e, st.Plans)
	for _, c := range []int64{
		st.Counters.PlanProbes, st.Counters.PlanHits, st.Counters.PlanBuilds,
		st.Counters.PlanRepairs, st.Counters.PlanRebuilds,
	} {
		e.varint(c)
	}
	return e.buf
}

// encodeLog emits one mutation-log section: horizon, then the records
// in log order.
func encodeLog(e *encoder, l engine.MutationLog) {
	e.uvarint(l.Horizon)
	e.uvarint(uint64(len(l.Recs)))
	for _, r := range l.Recs {
		e.uvarint(r.Gen)
		e.rawString(r.Key)
		e.varint(r.Count)
	}
}

// encodeSearches emits the cached-search section; the entries must already be in (Tau, MaxLevel) order.
func encodeSearches(e *encoder, cs []engine.CachedSearch) {
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.varint(c.Tau)
		e.uvarint(uint64(c.MaxLevel))
		e.uvarint(c.Gen)
		e.uvarint(uint64(len(c.MUPs)))
		for _, p := range c.MUPs {
			e.raw(p)
		}
		// The coverage-value cache: 0 = absent, 1 = one value per MUP.
		if c.Cov == nil {
			e.uvarint(0)
		} else {
			e.uvarint(1)
			for _, v := range c.Cov {
				e.varint(v)
			}
		}
		e.str(c.Stats.Algorithm)
		e.varint(c.Stats.CoverageProbes)
		e.varint(c.Stats.NodesVisited)
	}
}

// encodePlans emits the cached-plan section in the v3 layout; the
// entries must already be in configuration-key order.
func encodePlans(e *encoder, ps []engine.CachedPlan) {
	e.uvarint(uint64(len(ps)))
	for _, p := range ps {
		e.varint(p.Tau)
		e.uvarint(uint64(p.MUPMaxLevel))
		e.uvarint(uint64(p.MaxLevel))
		e.uvarint(p.MinValueCount)
		e.str(p.OracleFP)
		e.str(p.CostFP)
		e.uvarint(p.Gen)
		e.uvarint(0) // the basis slot; see decodePlans
		e.uvarint(uint64(len(p.Targets)))
		for _, m := range p.Targets {
			e.raw(m)
		}
		e.str(p.Algorithm)
		e.varint(int64(p.Iterations))
		e.varint(0) // the node count slot; see engine.CachedPlan
		e.uvarint(uint64(len(p.Suggestions)))
		for _, s := range p.Suggestions {
			e.raw(s.Combo)
			e.raw(s.Collect)
			e.uvarint(uint64(len(s.Hits)))
			for _, h := range s.Hits {
				e.uvarint(uint64(h))
			}
			e.uvarint(math.Float64bits(s.Cost))
		}
	}
}

// decodeState parses a v3 snapshot payload back into an engine.State.
// Structural validity (offsets, lengths, key order within a keyed
// table) is enforced here; semantic validity (cardinalities, row sums,
// shard routing, log ordering) is enforced by engine.NewFromState.
func decodeState(payload []byte) (*engine.State, error) {
	d := &decoder{b: payload}
	st := &engine.State{}

	dim64 := d.uvarint()
	if d.err == nil && dim64 > uint64(len(d.b)) {
		d.fail("dimension %d exceeds payload", dim64)
	}
	dim := int(dim64)
	if d.err == nil {
		st.Attrs = make([]dataset.Attribute, dim)
		for i := 0; i < dim && d.err == nil; i++ {
			st.Attrs[i].Name = d.str()
			nv := d.length(1)
			st.Attrs[i].Values = make([]string, nv)
			for j := 0; j < nv && d.err == nil; j++ {
				st.Attrs[i].Values[j] = d.str()
			}
		}
	}

	nShards := d.length(1)
	if nShards == 0 && d.err == nil {
		d.fail("snapshot declares zero shards")
	}
	st.Counts = make([][]engine.KeyCount, 0, nShards)
	for s := 0; s < nShards && d.err == nil; s++ {
		st.Counts = append(st.Counts, d.keyCounts(dim))
	}

	st.Rows = d.varint()
	st.Generation = d.uvarint()

	window := d.uvarint()
	if window > math.MaxInt32 {
		d.fail("window %d out of range", window)
	}
	st.Window = int(window)
	st.Tombstones = d.varint()
	nLog := d.length(dim)
	if nLog > 0 {
		st.WindowLog = make([]string, nLog)
		for i := 0; i < nLog && d.err == nil; i++ {
			st.WindowLog[i] = d.rawString(dim)
		}
	}
	st.PendingDeletes = d.keyCounts(dim)

	st.Removed = decodeLog(d, dim)
	st.Added = decodeLog(d, dim)
	st.Cache = decodeSearches(d, dim)

	for _, p := range []*int64{
		&st.Counters.Appends, &st.Counters.Deletes, &st.Counters.Evictions,
		&st.Counters.Compactions, &st.Counters.FullSearches, &st.Counters.Repairs,
		&st.Counters.BidirectionalRepairs, &st.Counters.CacheHits,
	} {
		*p = d.varint()
	}

	st.Plans = decodePlans(d, dim)
	for _, p := range []*int64{
		&st.Counters.PlanProbes, &st.Counters.PlanHits, &st.Counters.PlanBuilds,
		&st.Counters.PlanRepairs, &st.Counters.PlanRebuilds,
	} {
		*p = d.varint()
	}

	if err := d.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeLog parses one mutation-log section.
func decodeLog(d *decoder, dim int) engine.MutationLog {
	var l engine.MutationLog
	l.Horizon = d.uvarint()
	n := d.length(dim + 1)
	if n > 0 {
		l.Recs = make([]engine.MutationRec, n)
		for i := 0; i < n && d.err == nil; i++ {
			l.Recs[i].Gen = d.uvarint()
			l.Recs[i].Key = d.rawString(dim)
			l.Recs[i].Count = d.varint()
		}
	}
	return l
}

// decodeSearches parses the cached-search section.
func decodeSearches(d *decoder, dim int) []engine.CachedSearch {
	nCache := d.length(1)
	cache := make([]engine.CachedSearch, 0, nCache)
	for i := 0; i < nCache && d.err == nil; i++ {
		c := engine.CachedSearch{Tau: d.varint()}
		ml := d.uvarint()
		if ml > math.MaxInt32 {
			d.fail("cache entry %d: max level %d out of range", i, ml)
		}
		c.MaxLevel = int(ml)
		c.Gen = d.uvarint()
		nm := d.length(dim)
		// One backing array for the whole entry: cached sets can hold
		// thousands of MUPs and per-pattern allocations dominate
		// decode time.
		backing := make([]uint8, nm*dim)
		c.MUPs = make([]pattern.Pattern, nm)
		for j := 0; j < nm && d.err == nil; j++ {
			p := backing[j*dim : (j+1)*dim : (j+1)*dim]
			copy(p, d.raw(dim))
			c.MUPs[j] = pattern.Pattern(p)
		}
		switch hasCov := d.uvarint(); hasCov {
		case 0:
		case 1:
			c.Cov = make([]int64, nm)
			for j := 0; j < nm && d.err == nil; j++ {
				c.Cov[j] = d.varint()
			}
		default:
			d.fail("cache entry %d: bad coverage-cache marker %d", i, hasCov)
		}
		c.Stats = mup.Stats{
			Algorithm:      d.str(),
			CoverageProbes: d.varint(),
			NodesVisited:   d.varint(),
		}
		cache = append(cache, c)
	}
	return cache
}

// decodePlans parses the cached-plan section (v3 layout).
func decodePlans(d *decoder, dim int) []engine.CachedPlan {
	nPlans := d.length(1)
	plans := make([]engine.CachedPlan, 0, nPlans)
	for i := 0; i < nPlans && d.err == nil; i++ {
		p := engine.CachedPlan{Tau: d.varint()}
		ml := d.uvarint()
		pl := d.uvarint()
		if ml > math.MaxInt32 || pl > math.MaxInt32 {
			d.fail("plan entry %d: level bound out of range", i)
		}
		p.MUPMaxLevel = int(ml)
		p.MaxLevel = int(pl)
		p.MinValueCount = d.uvarint()
		p.OracleFP = d.str()
		p.CostFP = d.str()
		p.Gen = d.uvarint()
		// The basis slot: older writers stored the MUP set the targets
		// were expanded from. Nothing reads it; it is parsed and
		// dropped so their snapshots still restore.
		d.raw(d.length(dim) * dim)
		n := d.length(dim)
		backing := make([]uint8, n*dim)
		p.Targets = make([]pattern.Pattern, n)
		for j := 0; j < n && d.err == nil; j++ {
			q := backing[j*dim : (j+1)*dim : (j+1)*dim]
			copy(q, d.raw(dim))
			p.Targets[j] = pattern.Pattern(q)
		}
		p.Algorithm = d.str()
		p.Iterations = int(d.varint())
		d.varint() // the node count slot, not restored
		nSug := d.length(2 * dim)
		p.Suggestions = make([]engine.PlanSuggestion, 0, nSug)
		for j := 0; j < nSug && d.err == nil; j++ {
			var s engine.PlanSuggestion
			s.Combo = append([]uint8(nil), d.raw(dim)...)
			s.Collect = pattern.Pattern(append([]uint8(nil), d.raw(dim)...))
			nHits := d.length(1)
			s.Hits = make([]int, 0, nHits)
			for h := 0; h < nHits && d.err == nil; h++ {
				v := d.uvarint()
				if v > math.MaxInt32 {
					d.fail("plan entry %d suggestion %d: hit index %d out of range", i, j, v)
				}
				s.Hits = append(s.Hits, int(v))
			}
			s.Cost = math.Float64frombits(d.uvarint())
			p.Suggestions = append(p.Suggestions, s)
		}
		plans = append(plans, p)
	}
	return plans
}

// encodeDelta serializes a StateDelta deterministically. dim is the
// schema dimension (raw keys carry no per-key length); it is stored in
// the payload so a reader needs no side channel.
func encodeDelta(dl *engine.StateDelta, dim int) []byte {
	e := &encoder{buf: make([]byte, 0, 128+len(dl.Counts)*(dim+2))}
	e.uvarint(uint64(dim))
	e.uvarint(dl.FromGeneration)
	e.uvarint(dl.Generation)
	e.varint(dl.Rows)

	e.keyCounts(dl.Counts)

	e.uvarint(uint64(dl.Window))
	e.uvarint(uint64(dl.WindowDrop))
	e.uvarint(uint64(len(dl.WindowAppend)))
	for _, k := range dl.WindowAppend {
		e.rawString(k)
	}
	e.keyCounts(dl.PendingDeletes)
	e.varint(dl.Tombstones)

	encodeLog(e, dl.Removed)
	encodeLog(e, dl.Added)

	encodeSearches(e, dl.Cache)
	e.uvarint(uint64(len(dl.CacheKept)))
	for _, r := range dl.CacheKept {
		e.varint(r.Tau)
		e.uvarint(uint64(r.MaxLevel))
		e.uvarint(r.Gen)
	}
	encodePlans(e, dl.Plans)
	e.uvarint(uint64(len(dl.PlansKept)))
	for _, r := range dl.PlansKept {
		e.varint(r.Tau)
		e.uvarint(uint64(r.MUPMaxLevel))
		e.uvarint(uint64(r.MaxLevel))
		e.uvarint(r.MinValueCount)
		e.str(r.OracleFP)
		e.str(r.CostFP)
		e.uvarint(r.Gen)
	}

	for _, c := range []int64{
		dl.Counters.Appends, dl.Counters.Deletes, dl.Counters.Evictions,
		dl.Counters.Compactions, dl.Counters.FullSearches, dl.Counters.Repairs,
		dl.Counters.BidirectionalRepairs, dl.Counters.CacheHits,
		dl.Counters.PlanProbes, dl.Counters.PlanHits, dl.Counters.PlanBuilds,
		dl.Counters.PlanRepairs, dl.Counters.PlanRebuilds,
	} {
		e.varint(c)
	}
	return e.buf
}

// decodeDelta parses a delta payload. The returned dim is the schema
// dimension the delta was encoded for; callers verify it against the
// base state before applying. A count or pending-delete key that
// repeats or goes backwards is ErrCorrupt.
func decodeDelta(payload []byte) (*engine.StateDelta, int, error) {
	d := &decoder{b: payload}
	dl := &engine.StateDelta{}

	dim64 := d.uvarint()
	if d.err == nil && dim64 > uint64(len(d.b)) {
		d.fail("dimension %d exceeds payload", dim64)
	}
	dim := int(dim64)
	dl.FromGeneration = d.uvarint()
	dl.Generation = d.uvarint()
	dl.Rows = d.varint()

	dl.Counts = d.keyCounts(dim)

	window := d.uvarint()
	if window > math.MaxInt32 {
		d.fail("window %d out of range", window)
	}
	dl.Window = int(window)
	drop := d.uvarint()
	if drop > math.MaxInt32 {
		d.fail("window drop %d out of range", drop)
	}
	dl.WindowDrop = int(drop)
	nAppend := d.length(dim)
	if nAppend > 0 {
		dl.WindowAppend = make([]string, nAppend)
		for i := 0; i < nAppend && d.err == nil; i++ {
			dl.WindowAppend[i] = d.rawString(dim)
		}
	}
	dl.PendingDeletes = d.keyCounts(dim)
	dl.Tombstones = d.varint()

	dl.Removed = decodeLog(d, dim)
	dl.Added = decodeLog(d, dim)

	dl.Cache = decodeSearches(d, dim)
	nKept := d.length(1)
	dl.CacheKept = make([]engine.CachedSearchRef, 0, nKept)
	for i := 0; i < nKept && d.err == nil; i++ {
		r := engine.CachedSearchRef{Tau: d.varint()}
		ml := d.uvarint()
		if ml > math.MaxInt32 {
			d.fail("kept cache ref %d: max level %d out of range", i, ml)
		}
		r.MaxLevel = int(ml)
		r.Gen = d.uvarint()
		dl.CacheKept = append(dl.CacheKept, r)
	}
	dl.Plans = decodePlans(d, dim)
	nPKept := d.length(1)
	dl.PlansKept = make([]engine.CachedPlanRef, 0, nPKept)
	for i := 0; i < nPKept && d.err == nil; i++ {
		r := engine.CachedPlanRef{Tau: d.varint()}
		ml := d.uvarint()
		pl := d.uvarint()
		if ml > math.MaxInt32 || pl > math.MaxInt32 {
			d.fail("kept plan ref %d: level bound out of range", i)
		}
		r.MUPMaxLevel = int(ml)
		r.MaxLevel = int(pl)
		r.MinValueCount = d.uvarint()
		r.OracleFP = d.str()
		r.CostFP = d.str()
		r.Gen = d.uvarint()
		dl.PlansKept = append(dl.PlansKept, r)
	}

	for _, p := range []*int64{
		&dl.Counters.Appends, &dl.Counters.Deletes, &dl.Counters.Evictions,
		&dl.Counters.Compactions, &dl.Counters.FullSearches, &dl.Counters.Repairs,
		&dl.Counters.BidirectionalRepairs, &dl.Counters.CacheHits,
		&dl.Counters.PlanProbes, &dl.Counters.PlanHits, &dl.Counters.PlanBuilds,
		&dl.Counters.PlanRepairs, &dl.Counters.PlanRebuilds,
	} {
		*p = d.varint()
	}

	if err := d.done(); err != nil {
		return nil, 0, err
	}
	return dl, dim, nil
}
