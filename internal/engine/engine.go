// Package engine provides a thread-safe, incrementally updatable
// coverage engine over a growing dataset — the serving-side companion
// to the one-shot algorithms of packages index and mup.
//
// The engine is horizontally sharded: the combo space is partitioned
// across N shard cores by hash of each value combination (see
// shardOf), so the per-core distinct sets are disjoint and every
// global quantity is the sum of per-core answers. Each core keeps an
// immutable base oracle (an index.Index over its partition's distinct
// combinations) plus a small signed delta of combinations mutated
// since its base was built, compacting independently when its delta
// grows past a fraction of its base. Mutation batches are counted into
// per-core signed maps and fanned out in parallel — each core merges
// its slice under the coordinator's single write lock, so a batch is
// atomic for readers while the per-core map merges (the ingest
// bottleneck) run on separate goroutines; a batch too small to repay
// the thread wake-ups (inlineBatchRows) stays on the caller's. Point
// coverage queries merge base and delta on read, summed across cores.
//
// MUP searches are cached per (threshold, level bound) at the
// coordinator. A cold search is mup.Search over an oracle that sums the
// folded per-core bases: the pattern cube where the lattice fits, else
// a level-synchronous descent that resolves each candidate's count per
// shard and merges the sums. After appends, a cached set is repaired
// incrementally with mup.Repair — coverage is monotone under
// insertion, so only the subtrees of newly covered MUPs are
// re-expanded — instead of re-running a full search; the cached
// per-MUP coverage values are delta-updated from the mutation logs, so
// untouched patterns cost no probes at all.
//
// Remediation plans ride the same machinery: a bounded per-(τ,
// objective, oracle, cost model) plan cache sits beside the MUP
// caches, its entries tagged with the generation and repaired from
// the MUP-set delta — retracted MUPs drop their expanded hitting-set
// targets, new MUPs expand only their own cones, and the greedy
// search re-runs (seeded with the prior suggestions) only when the
// target set actually changed. See Plan.
//
// The mutation path is signed: Delete retracts rows and SetWindow
// bounds the engine to the most recent rows, evicting the oldest on
// overflow. Both directions flow through the same per-core delta
// entries, whose multiplicities may be negative, and prune a
// combination from the count maps the moment it reaches zero so
// compaction never rebuilds ghosts. Deletions break insertion
// monotonicity — coverage can fall back below τ — so every retracted
// combination is recorded (with its net multiplicity) in a bounded
// removed-combination log; a cached MUP set older than a deletion is
// repaired with mup.RepairBidirectional (one ancestor cube per removed
// combination finds the newly uncovered frontier, a pass over the
// cached MUPs re-expands the covered subtrees: the cost of what was
// removed plus one look at each cached MUP, and no oracle probe for a
// pure deletion), falling back to a full search only when the log's
// horizon has passed the cached generation or most of the distinct
// combinations were retracted.
package engine

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"coverage/internal/countstore"
	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// maxShards bounds the shard count; past it the per-core bases are too
// small to amortize the fan-out.
const maxShards = 64

// envShards resolves the COVSHARDS environment override once — the
// shard-matrix knob CI uses to run the whole suite single- and
// multi-sharded.
var envShards = sync.OnceValue(func() int {
	s := os.Getenv("COVSHARDS")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0
	}
	if n > maxShards {
		n = maxShards
	}
	return n
})

// Options configures an Engine.
type Options struct {
	// Shards is the number of shard cores the combo space is hash-
	// partitioned across. 0 consults the COVSHARDS environment
	// variable (the test matrix knob) and otherwise means 1. Values
	// are capped at 64. More shards parallelize the ingest map merges
	// and the per-core compactions; coverage and MUP answers are
	// identical for every shard count.
	Shards int
	// Workers is the goroutine count for parallel batch counting, full
	// MUP searches and repair passes; 0 means GOMAXPROCS.
	Workers int
	// CompactFraction triggers a per-core base rebuild when the core's
	// delta holds more than this fraction of its base's distinct
	// combinations; 0 means 0.25.
	CompactFraction float64
	// CompactMinDistinct is the per-core delta size below which the
	// fraction trigger is ignored (tiny deltas are cheap to merge on
	// read); 0 means 1024.
	CompactMinDistinct int
	// MaxCachedSearches bounds the per-(threshold, level) MUP cache;
	// the least recently used entry is evicted beyond it. Rate-based
	// thresholds over a growing dataset mint a new threshold per
	// append, so the cache must not grow with query history. 0 means
	// 64.
	MaxCachedSearches int
	// MaxCachedPlans bounds the per-(threshold, objective, oracle,
	// cost model) remediation-plan cache the same way. Plans carry
	// their expanded target sets, which dwarf the MUP sets they come
	// from, so the bound is tighter. 0 means 16.
	MaxCachedPlans int
	// RemovedLogSize bounds the log of retracted combinations kept for
	// bidirectional cache repair. A cached MUP set older than the
	// log's horizon cannot be repaired and falls back to a full
	// search, so larger logs tolerate longer gaps between queries on
	// delete-heavy streams. 0 means 8192.
	RemovedLogSize int
	// FullSearchRemovedFraction is the bulk-retraction cutoff: the
	// repair builds one ancestor cube per removed combination, so once
	// the distinct combinations removed since a cached MUP set exceed
	// this fraction of the engine's distinct combinations a fresh
	// parallel search is cheaper and the engine runs that instead.
	// 0 means 0.5 (the measured crossover is near 0.7: 100 000-row
	// AirBnB-shaped tables of 13 and 16 attributes both still repair
	// 1.5× faster than they search at 0.67 and 0.48); values ≥ 1 never
	// fall back.
	FullSearchRemovedFraction float64
}

func (o Options) shardCount() int {
	if o.Shards > 0 {
		if o.Shards > maxShards {
			return maxShards
		}
		return o.Shards
	}
	if n := envShards(); n > 0 {
		return n
	}
	return 1
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) compactFraction() float64 {
	if o.CompactFraction > 0 {
		return o.CompactFraction
	}
	return 0.25
}

func (o Options) compactMinDistinct() int {
	if o.CompactMinDistinct > 0 {
		return o.CompactMinDistinct
	}
	return 1024
}

func (o Options) maxCachedSearches() int {
	if o.MaxCachedSearches > 0 {
		return o.MaxCachedSearches
	}
	return 64
}

func (o Options) maxCachedPlans() int {
	if o.MaxCachedPlans > 0 {
		return o.MaxCachedPlans
	}
	return 16
}

func (o Options) removedLogSize() int {
	if o.RemovedLogSize > 0 {
		return o.RemovedLogSize
	}
	return 8192
}

func (o Options) fullSearchRemovedFraction() float64 {
	if o.FullSearchRemovedFraction > 0 {
		return o.FullSearchRemovedFraction
	}
	return 0.5
}

// ShardStat describes one shard core: its partition's live rows, its
// live distinct combinations, its pending delta size, how many times
// it has compacted, and the footprint of its count table.
type ShardStat struct {
	Rows          int64
	Distinct      int
	DeltaDistinct int
	Compactions   int64
	// StoreOccupancy is the count table's live-keys/slot-capacity fill
	// ratio and StoreBytes the resident bytes of the core's count and
	// pending delta-position tables.
	StoreOccupancy float64
	StoreBytes     int64
}

// Stats is a snapshot of the engine's internal counters.
type Stats struct {
	// Rows is the total row count across all shards.
	Rows int64
	// Distinct is the number of live distinct combinations across the
	// shard cores — base-resident plus delta-resident, minus
	// combinations whose multiplicity has dropped to zero since the
	// owning core's last compaction. DeltaDistinct counts combinations
	// mutated since that compaction (a combination already in a base
	// still gets a delta entry for its additional multiplicity).
	Distinct      int
	DeltaDistinct int
	// Generation increments on every mutation batch (append, delete or
	// window eviction); cached MUP sets are tagged with it.
	Generation uint64
	// Appends, Deletes, Evictions, Compactions, FullSearches, Repairs,
	// BidirectionalRepairs and CacheHits count engine operations since
	// construction. Repairs are the downward (append-only) cache
	// repairs; BidirectionalRepairs additionally climbed to newly
	// uncovered patterns after deletions. Compactions sum over the
	// shard cores.
	Appends              int64
	Deletes              int64
	Evictions            int64
	Compactions          int64
	FullSearches         int64
	Repairs              int64
	BidirectionalRepairs int64
	CacheHits            int64
	// CachedSearches is the number of MUP configurations currently
	// cached (bounded by Options.MaxCachedSearches).
	CachedSearches int
	// PlanProbes counts Plan requests; PlanHits those answered from
	// the plan cache with no work at all. PlanBuilds counts plans
	// expanded and searched from scratch, PlanRepairs target-set
	// repairs that proved the cached plan still valid (zero greedy
	// iterations), and PlanRebuilds seeded greedy re-runs after the
	// target set changed. CachedPlans is the number of plan
	// configurations currently cached (bounded by
	// Options.MaxCachedPlans).
	PlanProbes   int64
	PlanHits     int64
	PlanBuilds   int64
	PlanRepairs  int64
	PlanRebuilds int64
	CachedPlans  int
	// Window is the configured sliding-window bound in rows; 0 means
	// unbounded. Tombstones counts deleted rows whose window-log
	// entries have not yet been reconciled by eviction.
	Window     int
	Tombstones int64
	// ShardCount is the number of shard cores; Shards holds one entry
	// per core.
	ShardCount int
	Shards     []ShardStat
}

// deltaEntry is one distinct combination mutated since the owning
// core's last compaction, with the signed multiplicity change since
// then (negative when deletions or window evictions outweigh appends).
type deltaEntry struct {
	combo pattern.Pattern
	count int64
}

// searchKey identifies one cached MUP search configuration. maxLevel
// is canonical (see canonLevel), so every spelling of one answer shares
// one entry.
type searchKey struct {
	tau      int64
	maxLevel int
}

// canonLevel is the canonical form of a MUP level bound over d
// attributes: a bound ≤ 0 or ≥ d excludes no pattern, so it is 0, the
// unbounded search.
func canonLevel(maxLevel, d int) int {
	if maxLevel <= 0 || maxLevel >= d {
		return 0
	}
	return maxLevel
}

// cachedSearch is a cached MUP result tagged with the data generation
// it reflects. lastUsed orders entries for LRU eviction; it is atomic
// so cache hits under the read lock can touch it.
type cachedSearch struct {
	gen      uint64
	res      *mup.Result
	lastUsed atomic.Uint64
}

// ShardedEngine is the fan-out coordinator of the incremental coverage
// engine: N shard cores hash-partitioning the combo space, with the
// sliding window, the mutation logs, the per-(τ, level) MUP caches and
// the generation counter held once at the coordinator. Mutation
// batches are counted into per-core signed maps outside the lock and
// applied to the cores in parallel under it; queries sum per-core
// answers; MUP searches run level-synchronously against the merged
// per-shard counts. All methods are safe for concurrent use.
//
// A single-shard engine is simply a ShardedEngine with one core —
// Engine is the same type under its historical name.
type ShardedEngine struct {
	schema *dataset.Schema
	cards  []int
	opts   Options
	keys   *keyCodec
	cores  []*shardCore

	// comboRate is an EWMA of distinct combinations per row measured
	// over recent mutation batches — the pre-sizing estimate for batch
	// accumulators and flat-table reserves (float64 bits in an atomic;
	// batch counting runs outside the engine lock).
	comboRate atomic.Uint64

	// mu scopes every access to the coordinator state and the cores:
	// mutations hold the write lock for the whole cross-core batch (so
	// batches stay atomic for readers), queries the read lock. Lattice
	// searches snapshot the immutable per-core bases under the lock
	// and probe them outside it.
	mu        sync.RWMutex
	rows      int64
	gen       uint64
	cache     map[searchKey]*cachedSearch
	planCache map[planKey]*cachedPlan

	// Sliding-window state. log records live rows in arrival order
	// (only while window > 0); pendingDeletes holds tombstones for rows
	// deleted by value whose log entries are reconciled lazily on
	// eviction. windowEvicted counts every log-entry pop (tombstone
	// consumptions included), so it is the absolute index of the log's
	// current head since the log was created — the coordinate delta
	// snapshots use to express "drop the first k entries of the
	// baseline's log". windowEpoch bumps whenever the log is created or
	// dropped; a baseline from another epoch cannot be expressed as a
	// drop/append pair and forces a full snapshot.
	window         int
	log            *rowLog
	pendingDeletes *countstore.Flat
	tombstones     int64
	windowEvicted  uint64
	windowEpoch    uint64

	// removed records combinations whose multiplicity decreased (by
	// delete or eviction) and added those whose multiplicity grew —
	// with the net change per generation — so cached MUP sets can be
	// repaired from the mutated combinations alone and their cached
	// coverage values delta-updated without probing.
	// A cache older than the removed log's horizon must run a full
	// search; an added log past its horizon only costs extra probes.
	removed mutLog
	added   mutLog

	appends      int64
	deletes      int64
	evictions    int64
	fullSearches int64
	repairs      int64
	bidirRepairs int64
	// planBuilds, planRepairs and planRebuilds classify how each
	// non-hit Plan request was answered; they mutate under mu. The
	// probe and hit counters are atomics because hits happen under the
	// read lock.
	planBuilds   int64
	planRepairs  int64
	planRebuilds int64
	planProbes   atomic.Int64
	planHits     atomic.Int64
	// compactionsBase carries compaction counts restored from a
	// snapshot; the live counts accumulate in the cores.
	compactionsBase int64
	cacheHits       atomic.Int64
	useClock        atomic.Uint64 // LRU clock for cache entries
}

// Engine is the package's historical name for the coordinator. The
// public constructors build it with Options.shardCount() cores, so
// every Engine is a ShardedEngine (with a single core by default) and
// the two names are interchangeable everywhere — persistence, the
// covserve handlers and the public coverage.Analyzer included.
type Engine = ShardedEngine

// mutRec is one mutated combination at one generation, with the net
// signed multiplicity change (0 when restored from a log format that
// did not record magnitudes).
type mutRec struct {
	gen   uint64
	key   pattern.PackedKey
	count int64
}

// mutLog is a bounded log of combination mutations in nondecreasing
// generation order. horizon is the generation up to which entries have
// been trimmed away; questions about older generations are
// unanswerable.
type mutLog struct {
	recs    []mutRec
	horizon uint64
}

// record appends one mutation at gen, trimming the oldest half (on
// whole-generation boundaries, so the horizon stays exact) when the
// log outgrows max. The survivors move to the front of the same array,
// so a log that has reached max allocates nothing more: ingest and WAL
// replay record every combination they mutate.
func (l *mutLog) record(gen uint64, k pattern.PackedKey, count int64, max int) {
	l.recs = append(l.recs, mutRec{gen: gen, key: k, count: count})
	if len(l.recs) <= max {
		return
	}
	cut := len(l.recs) - max/2
	for cut < len(l.recs) && l.recs[cut].gen == l.recs[cut-1].gen {
		cut++
	}
	l.horizon = l.recs[cut-1].gen
	l.recs = l.recs[:copy(l.recs, l.recs[cut:])]
}

// since returns the net multiplicity change per distinct combination
// mutated after generation gen, and whether the log still reaches back
// that far. exact reports that every returned net is known; a rec
// restored without a magnitude poisons its combination's net (the
// Delta keeps Count 0 = unknown, which still gates repair probes but
// disables coverage delta-updates). The slice is non-nil whenever ok,
// so "provably none" and "unknown" stay distinct.
func (l *mutLog) since(gen uint64, keys *keyCodec) (deltas []mup.Delta, exact, ok bool) {
	if gen < l.horizon {
		return nil, false, false
	}
	sums := make(map[pattern.PackedKey]int64)
	unknown := make(map[pattern.PackedKey]bool)
	for i := len(l.recs) - 1; i >= 0 && l.recs[i].gen > gen; i-- {
		r := l.recs[i]
		if r.count == 0 {
			unknown[r.key] = true
		}
		sums[r.key] += r.count
	}
	deltas = make([]mup.Delta, 0, len(sums))
	exact = true
	for k, n := range sums {
		if unknown[k] {
			exact = false
			n = 0
		} else if n == 0 {
			// A known net of zero cannot have changed any coverage.
			continue
		}
		deltas = append(deltas, mup.Delta{Combo: keys.pattern(k), Count: n})
	}
	return deltas, exact, true
}

// rowLog is a FIFO of row combination keys in arrival order, backing
// the sliding window. Popped slots are compacted away once the dead
// prefix dominates the backing array, keeping amortized O(1) pops
// without unbounded growth.
type rowLog struct {
	keys []string
	head int
}

func (l *rowLog) push(k string) { l.keys = append(l.keys, k) }

func (l *rowLog) pop() string {
	k := l.keys[l.head]
	l.keys[l.head] = ""
	l.head++
	if l.head > 1024 && l.head > len(l.keys)/2 {
		l.keys = append(l.keys[:0], l.keys[l.head:]...)
		l.head = 0
	}
	return k
}

func (l *rowLog) len() int { return len(l.keys) - l.head }

// New returns an empty engine over the schema, with Options.Shards
// cores (default one).
func New(schema *dataset.Schema, opts Options) *Engine {
	n := opts.shardCount()
	e := &ShardedEngine{
		schema:    schema,
		cards:     schema.Cards(),
		opts:      opts,
		keys:      newKeyCodec(schema.Cards()),
		cores:     make([]*shardCore, n),
		cache:     make(map[searchKey]*cachedSearch),
		planCache: make(map[planKey]*cachedPlan),
	}
	for i := range e.cores {
		e.cores[i] = newShardCore(schema, e.keys, opts)
	}
	return e
}

// NewSharded returns an empty engine with the combo space partitioned
// across shards cores (the fan-out coordinator's explicit
// constructor; New with Options.Shards set is equivalent).
func NewSharded(schema *dataset.Schema, shards int, opts Options) *ShardedEngine {
	opts.Shards = shards
	return New(schema, opts)
}

// NewFromDataset returns an engine pre-loaded with the dataset's rows,
// partitioned across the configured shard count. The per-core base
// builds run in parallel, one goroutine per core.
func NewFromDataset(ds *dataset.Dataset, opts Options) *Engine {
	e := New(ds.Schema(), opts)
	n := len(e.cores)
	dd := ds.Distinct()
	parts := make([]*countstore.Flat, n)
	for i := range parts {
		parts[i] = countstore.NewFlat(len(dd.Combos)/n + 1)
	}
	for k, combo := range dd.Combos {
		parts[shardOfRow(combo, n)].Set(e.keys.ofRow(combo), dd.Counts[k])
	}
	var wg sync.WaitGroup
	for i, c := range e.cores {
		wg.Add(1)
		go func(c *shardCore, part *countstore.Flat) {
			defer wg.Done()
			c.seed(part)
		}(c, parts[i])
	}
	wg.Wait()
	for _, c := range e.cores {
		e.rows += c.rows
	}
	return e
}

// Schema returns the engine's schema.
func (e *ShardedEngine) Schema() *dataset.Schema { return e.schema }

// Cards returns the cardinality vector. The caller must not modify it.
func (e *ShardedEngine) Cards() []int { return e.cards }

// Shards returns the number of shard cores.
func (e *ShardedEngine) Shards() int { return len(e.cores) }

// Rows returns the total number of live rows across all shards.
func (e *ShardedEngine) Rows() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rows
}

// Generation returns the current data generation; it increments on
// every mutation batch.
func (e *ShardedEngine) Generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen
}

// Stats returns a snapshot of the engine's counters, including one
// ShardStat per core.
func (e *ShardedEngine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{
		Rows:                 e.rows,
		Generation:           e.gen,
		Appends:              e.appends,
		Deletes:              e.deletes,
		Evictions:            e.evictions,
		Compactions:          e.compactionsBase,
		FullSearches:         e.fullSearches,
		Repairs:              e.repairs,
		BidirectionalRepairs: e.bidirRepairs,
		CacheHits:            e.cacheHits.Load(),
		CachedSearches:       len(e.cache),
		PlanProbes:           e.planProbes.Load(),
		PlanHits:             e.planHits.Load(),
		PlanBuilds:           e.planBuilds,
		PlanRepairs:          e.planRepairs,
		PlanRebuilds:         e.planRebuilds,
		CachedPlans:          len(e.planCache),
		Window:               e.window,
		Tombstones:           e.tombstones,
		ShardCount:           len(e.cores),
		Shards:               make([]ShardStat, len(e.cores)),
	}
	for i, c := range e.cores {
		st.Shards[i] = ShardStat{
			Rows:           c.rows,
			Distinct:       c.counts.Len(),
			DeltaDistinct:  len(c.delta),
			Compactions:    c.compactions,
			StoreOccupancy: c.counts.Mem().Occupancy(),
			StoreBytes:     c.storeBytes(),
		}
		st.Distinct += c.counts.Len()
		st.DeltaDistinct += len(c.delta)
		st.Compactions += c.compactions
	}
	return st
}

// ResidentBytes reports the engine's resident count-store footprint:
// the sum of Stats().Shards[i].StoreBytes, without materializing the
// full Stats block. Registries use it as the signal for LRU
// byte-budget eviction across tenants.
func (e *ShardedEngine) ResidentBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var b int64
	for _, c := range e.cores {
		b += c.storeBytes()
	}
	return b
}

// validateRows checks every row against the schema before any
// mutation, so a rejected batch leaves the engine untouched.
func (e *ShardedEngine) validateRows(rows [][]uint8) error {
	for n, row := range rows {
		if len(row) != len(e.cards) {
			return fmt.Errorf("engine: row %d has %d values, schema has %d attributes", n, len(row), len(e.cards))
		}
		for i, v := range row {
			if int(v) >= e.cards[i] {
				return fmt.Errorf("engine: row %d: value %d for attribute %q exceeds cardinality %d",
					n, v, e.schema.Attr(i).Name, e.cards[i])
			}
		}
	}
	return nil
}

// countBatch counts the batch's combinations into one signed map per
// core, outside the engine lock. With one core the batch is chunked
// across workers and merged (the classic parallel count); with many,
// a single lightweight partition pass routes each row to its core as
// an already-packed key (one hash plus one pack per row, no per-row
// allocation), so every core receives one contiguous key slice and its
// table is built by its own goroutine — the inserts, which dominate
// ingest, run fully in parallel with no cross-core merge.
// A batch under inlineBatchRows is counted on the calling goroutine.
func (e *ShardedEngine) countBatch(rows [][]uint8) []*countstore.Flat {
	n := len(e.cores)
	inline := len(rows) < inlineBatchRows
	if n == 1 {
		workers := e.opts.workers()
		if inline {
			workers = 1
		}
		shards := e.shardCounts(rows, workers)
		if len(shards) == 0 {
			return []*countstore.Flat{countstore.NewFlat(0)}
		}
		merged := shards[0]
		merged.ExpectInserts(len(rows) - merged.Len())
		for _, m := range shards[1:] {
			m.Range(func(k pattern.PackedKey, c int64) { merged.Add(k, c) })
		}
		e.observeRate(merged.Len(), len(rows))
		return []*countstore.Flat{merged}
	}
	parts := make([][]pattern.PackedKey, n)
	per := len(rows)/n + 16
	for i := range parts {
		parts[i] = make([]pattern.PackedKey, 0, per)
	}
	for _, row := range rows {
		s := shardOfRow(row, n)
		parts[s] = append(parts[s], e.keys.ofRow(row))
	}
	out := make([]*countstore.Flat, n)
	count := func(i int) {
		m := countstore.NewFlat(e.batchHint(len(parts[i])))
		for _, k := range parts[i] {
			m.Add(k, 1)
		}
		out[i] = m
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		switch {
		case len(parts[i]) == 0:
			out[i] = countstore.NewFlat(0)
		case inline:
			count(i)
		default:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				count(i)
			}(i)
		}
	}
	wg.Wait()
	distinct := 0
	for _, m := range out {
		distinct += m.Len()
	}
	e.observeRate(distinct, len(rows))
	return out
}

// inlineBatchRows is the batch size below which a mutation is counted
// and applied on the calling goroutine instead of one goroutine per
// core: waking another thread for a few dozen rows costs more than
// counting them (a 100-row Append on two cores takes 26 µs here and
// 57 through the fan-out), and every WAL record a restart replays
// would pay the wake-up again.
const inlineBatchRows = 512

// defaultComboRate seeds the distinct-combos-per-row estimate before
// any batch has been measured — the historical len/4 pre-sizing guess.
const defaultComboRate = 0.25

// batchHint sizes an accumulator for a batch slice of rows rows using
// the measured combos-per-row rate, so flat tables are born at their
// final capacity instead of rehashing mid-batch.
func (e *ShardedEngine) batchHint(rows int) int {
	r := math.Float64frombits(e.comboRate.Load())
	if !(r > 0 && r <= 1) {
		r = defaultComboRate
	}
	return int(r*float64(rows)) + 16
}

// observeRate folds one measured batch (distinct combos over rows)
// into the EWMA. Racing updates may drop one observation; the estimate
// is advisory, so last-write-wins is fine.
func (e *ShardedEngine) observeRate(distinct, rows int) {
	if rows <= 0 {
		return
	}
	obs := float64(distinct) / float64(rows)
	old := math.Float64frombits(e.comboRate.Load())
	next := obs
	if old > 0 {
		next = 0.5*old + 0.5*obs
	}
	e.comboRate.Store(math.Float64bits(next))
}

// shardCounts partitions rows into contiguous chunks, one per worker,
// and counts each chunk's combinations into a private table. An empty
// batch (or a non-positive worker count) returns no shards rather
// than indexing one that does not exist.
func (e *ShardedEngine) shardCounts(rows [][]uint8, workers int) []*countstore.Flat {
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers <= 0 {
		return nil
	}
	chunk := (len(rows) + workers - 1) / workers
	// Rounding chunk up can leave the last workers without rows; size
	// the shard slice by the chunks actually spawned so every entry is
	// a live table (the merge in countBatch iterates them all).
	nChunks := (len(rows) + chunk - 1) / chunk
	shards := make([]*countstore.Flat, nChunks)
	count := func(w int, part [][]uint8) {
		m := countstore.NewFlat(e.batchHint(len(part)))
		for _, row := range part {
			m.Add(e.keys.ofRow(row), 1)
		}
		shards[w] = m
	}
	if nChunks == 1 {
		count(0, rows)
		return shards
	}
	var wg sync.WaitGroup
	for w := 0; w < nChunks; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		wg.Add(1)
		go func(w int, part [][]uint8) {
			defer wg.Done()
			count(w, part)
		}(w, rows[lo:hi])
	}
	wg.Wait()
	return shards
}

// applyCoresLocked fans the per-core signed mutation maps out to the
// cores — in parallel when more than one core has work and the batch
// holds at least inlineBatchRows combinations, one after another on
// the calling goroutine otherwise. Caller holds the write lock, which
// is what makes the cross-core batch atomic for readers.
func (e *ShardedEngine) applyCoresLocked(muts []*countstore.Flat) {
	busy := 0
	last := -1
	combos := 0
	for i, m := range muts {
		if m.Len() > 0 {
			busy++
			last = i
			combos += m.Len()
		}
	}
	switch {
	case busy == 0:
	case busy == 1:
		e.cores[last].applyBatch(muts[last])
	case combos < inlineBatchRows:
		for i, m := range muts {
			if m.Len() > 0 {
				e.cores[i].applyBatch(m)
			}
		}
	default:
		var wg sync.WaitGroup
		for i, m := range muts {
			if m.Len() == 0 {
				continue
			}
			wg.Add(1)
			go func(c *shardCore, m *countstore.Flat) {
				defer wg.Done()
				c.applyBatch(m)
			}(e.cores[i], m)
		}
		wg.Wait()
	}
}

// Append validates and adds a batch of rows. The batch is counted into
// per-core signed maps outside the lock (parallel, one goroutine per
// core, from inlineBatchRows rows up), then fanned out to the cores
// under the write lock. No base oracle is rebuilt unless a core's
// accumulated delta crosses the compaction threshold. With a sliding
// window configured, rows beyond the bound are evicted oldest-first in
// the same mutation.
func (e *ShardedEngine) Append(rows [][]uint8) error {
	if len(rows) == 0 {
		return nil
	}
	if err := e.validateRows(rows); err != nil {
		return err
	}
	muts := e.countBatch(rows)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++
	e.appends++
	logSize := e.opts.removedLogSize()
	for _, m := range muts {
		m.Range(func(k pattern.PackedKey, c int64) {
			e.added.record(e.gen, k, c, logSize)
		})
	}
	if e.log != nil {
		for _, row := range rows {
			e.log.push(string(row))
		}
	}
	e.rows += int64(len(rows))
	e.evictIntoLocked(muts)
	e.applyCoresLocked(muts)
	return nil
}

// Delete validates and retracts a batch of rows. The whole batch is
// atomic: if any row's combination lacks the multiplicity to delete,
// the engine is left untouched and an error returned. Rows with equal
// value combinations are indistinguishable, so under a sliding window
// a delete retracts the oldest matching occurrences (the log entries
// are tombstoned and reconciled lazily when eviction reaches them).
func (e *ShardedEngine) Delete(rows [][]uint8) error {
	if len(rows) == 0 {
		return nil
	}
	if err := e.validateRows(rows); err != nil {
		return err
	}
	need := e.countBatch(rows)

	e.mu.Lock()
	defer e.mu.Unlock()
	for i, m := range need {
		var err error
		m.Range(func(k pattern.PackedKey, c int64) {
			if err != nil {
				return
			}
			if have := e.cores[i].multiplicity(k); have < c {
				err = fmt.Errorf("engine: cannot delete %d row(s) of combination %v: only %d present",
					c, e.keys.pattern(k), have)
			}
		})
		if err != nil {
			return err
		}
	}
	e.gen++
	e.deletes++
	logSize := e.opts.removedLogSize()
	for _, m := range need {
		m.Range(func(k pattern.PackedKey, c int64) {
			e.removed.record(e.gen, k, -c, logSize)
			if e.log != nil {
				e.pendingDeletes.Add(k, c)
				e.tombstones += c
			}
		})
		// The batch held the positive multiplicities to validate
		// against; the cores apply it as a retraction.
		m.Negate()
	}
	e.rows -= int64(len(rows))
	e.applyCoresLocked(need)
	return nil
}

// SetWindow configures a sliding window of at most maxRows live rows;
// rows beyond it are evicted oldest-first on every subsequent append.
// maxRows <= 0 removes the window (and drops the row log). Rows already
// present when the window is first enabled have no recorded arrival
// order; they are treated as oldest — ordered by ascending key-space
// page occupancy (sparsest pages evict first; ties by page then
// combination) — and evicted before any row appended afterwards. The
// ordering is a pure function of the schema and the live combination
// set, so it is identical across shard counts — and across versions:
// SetWindow is a WAL-logged mutation, so a log written by an older
// binary must replay to the same eviction order.
//
// Every SetWindow call advances the generation, whether or not it
// evicts: window changes are logged mutations, and a unique generation
// per WAL record is what lets replication replay gate them
// idempotently.
func (e *ShardedEngine) SetWindow(maxRows int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++
	if maxRows <= 0 {
		e.window = 0
		if e.log != nil {
			e.windowEpoch++
		}
		e.log = nil
		e.pendingDeletes = nil
		e.tombstones = 0
		e.windowEvicted = 0
		return
	}
	e.window = maxRows
	if e.log == nil {
		e.log = &rowLog{}
		e.pendingDeletes = countstore.NewFlat(0)
		e.windowEpoch++
		e.windowEvicted = 0
		keys := make([]string, 0, e.distinctLocked())
		for _, c := range e.cores {
			c.counts.Range(func(k pattern.PackedKey, _ int64) {
				keys = append(keys, e.keys.str(k))
			})
		}
		e.orderInitialWindow(keys)
		for _, k := range keys {
			n := e.cores[shardOf(k, len(e.cores))].multiplicity(e.keys.ofString(k))
			for i := int64(0); i < n; i++ {
				e.log.push(k)
			}
		}
	}
	if e.rows > int64(e.window) {
		muts := make([]*countstore.Flat, len(e.cores))
		for i := range muts {
			muts[i] = countstore.NewFlat(0)
		}
		e.evictIntoLocked(muts)
		e.applyCoresLocked(muts)
	}
}

// windowPageShift fixes the page granularity of the initial-window
// eviction order: 4096 consecutive canonical packed keys per page.
// Frozen — changing it would reorder the replay of logged SetWindow
// records.
const windowPageShift = 12

// windowPageOf maps a canonical packed key to its page index, a pure
// function of the key alone.
func windowPageOf(k pattern.PackedKey) uint64 {
	return k[0]>>windowPageShift | k[1]<<(64-windowPageShift)
}

// orderInitialWindow sorts the initial window log's distinct keys into
// eviction order: ascending live-combo count of each key's page, ties
// broken by page then raw key. The canonical compact codec — not the
// engine's key codec, which is the raw byte-aligned one where the
// schema has one — keys the pages, so the order depends on the schema
// and the live set alone.
func (e *ShardedEngine) orderInitialWindow(keys []string) {
	canon := pattern.NewCodec(e.cards)
	type entry struct {
		page uint64
		key  string
	}
	entries := make([]entry, len(keys))
	live := make(map[uint64]int, len(keys)>>windowPageShift+1)
	for i, k := range keys {
		page := windowPageOf(canon.PackedKeyString(k))
		entries[i] = entry{page: page, key: k}
		live[page]++
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if la, lb := live[a.page], live[b.page]; la != lb {
			return la < lb
		}
		if a.page != b.page {
			return a.page < b.page
		}
		return a.key < b.key
	})
	for i := range entries {
		keys[i] = entries[i].key
	}
}

// Window returns the configured sliding-window bound (0 = unbounded).
func (e *ShardedEngine) Window() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.window
}

// evictIntoLocked pops the oldest log entries until the live row count
// fits the window, consuming tombstones (rows already deleted by
// value) as it goes. The retractions are merged into the per-core
// mutation maps (so the whole append-plus-evictions mutation reaches
// each core as one atomic signed batch) and recorded in the removed
// log with their net counts, in first-pop order so that one mutation
// history always yields one removed log. Caller holds the write lock
// with the generation already advanced for this mutation.
func (e *ShardedEngine) evictIntoLocked(muts []*countstore.Flat) {
	if e.window <= 0 || e.log == nil {
		return
	}
	n := len(e.cores)
	evicted := make(map[string]int64)
	var order []string
	for e.rows > int64(e.window) {
		k := e.log.pop()
		e.windowEvicted++
		if ck := e.keys.ofString(k); e.pendingDeletes.Get(ck) > 0 {
			e.pendingDeletes.Add(ck, -1)
			e.tombstones--
			continue
		}
		if evicted[k] == 0 {
			order = append(order, k)
		}
		evicted[k]++
		e.rows--
		e.evictions++
	}
	logSize := e.opts.removedLogSize()
	for _, k := range order {
		c := evicted[k]
		ck := e.keys.ofString(k)
		muts[shardOf(k, n)].Add(ck, -c)
		e.removed.record(e.gen, ck, -c, logSize)
	}
}

// distinctLocked sums the per-core live distinct counts.
func (e *ShardedEngine) distinctLocked() int {
	n := 0
	for _, c := range e.cores {
		n += c.counts.Len()
	}
	return n
}

// Coverage returns cov(P) over all live data: the sum of the per-core
// answers (base probe plus delta scan on each partition).
func (e *ShardedEngine) Coverage(p pattern.Pattern) (int64, error) {
	if err := p.Validate(e.cards); err != nil {
		return 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var c int64
	for _, core := range e.cores {
		c += core.coverage(p)
	}
	return c, nil
}

// CoverageBatch answers many coverage queries under one lock
// acquisition, fanning the batch out core by core (each core resolves
// the whole pattern list over its partition on its own goroutine, then
// the per-shard count vectors are summed). It fails on the first
// invalid pattern.
func (e *ShardedEngine) CoverageBatch(ps []pattern.Pattern) ([]int64, error) {
	for _, p := range ps {
		if err := p.Validate(e.cards); err != nil {
			return nil, err
		}
	}
	out := make([]int64, len(ps))
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.cores) == 1 || len(ps) == 1 {
		for _, core := range e.cores {
			for i, p := range ps {
				out[i] += core.coverage(p)
			}
		}
		return out, nil
	}
	partial := make([][]int64, len(e.cores))
	var wg sync.WaitGroup
	for ci, core := range e.cores {
		wg.Add(1)
		go func(ci int, core *shardCore) {
			defer wg.Done()
			vec := make([]int64, len(ps))
			for i, p := range ps {
				vec[i] = core.coverage(p)
			}
			partial[ci] = vec
		}(ci, core)
	}
	wg.Wait()
	for _, vec := range partial {
		for i, c := range vec {
			out[i] += c
		}
	}
	return out, nil
}

// foldLocked compacts every core's pending delta (in parallel) and
// returns the immutable per-core bases. Caller holds the write lock.
func (e *ShardedEngine) foldLocked() []*index.Index {
	bases := make([]*index.Index, len(e.cores))
	if len(e.cores) == 1 {
		bases[0] = e.cores[0].fold()
		return bases
	}
	var wg sync.WaitGroup
	for i, c := range e.cores {
		if len(c.delta) == 0 {
			bases[i] = c.base
			continue
		}
		wg.Add(1)
		go func(i int, c *shardCore) {
			defer wg.Done()
			bases[i] = c.fold()
		}(i, c)
	}
	wg.Wait()
	return bases
}

// Index compacts any pending deltas and returns a single base oracle
// reflecting all live data. With one core this is that core's base
// (shared by reference, immutable); with several, a merged index is
// built from the union of the partitions — an O(distinct) rebuild, so
// sharded callers that only need probes should prefer Oracle.
func (e *ShardedEngine) Index() *index.Index {
	e.mu.RLock()
	if len(e.cores) == 1 && len(e.cores[0].delta) == 0 {
		ix := e.cores[0].base
		e.mu.RUnlock()
		return ix
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cores) == 1 {
		return e.cores[0].fold()
	}
	e.foldLocked()
	union := make(map[string]int64, e.distinctLocked())
	for _, c := range e.cores {
		c.counts.Range(func(k pattern.PackedKey, n int64) {
			union[e.keys.str(k)] = n
		})
	}
	return index.BuildFromCounts(e.schema, union)
}

// Oracle folds any pending deltas and returns a coverage oracle over
// all live data: the bare base index for a single core, the summing
// fan-out oracle otherwise. The oracle is immutable and remains valid
// (but stale) after further mutations. In the read-mostly steady
// state (no pending deltas) only the read lock is taken, so Oracle
// never serializes against concurrent queries.
func (e *ShardedEngine) Oracle() index.Oracle {
	e.mu.RLock()
	clean := true
	bases := make([]*index.Index, len(e.cores))
	for i, c := range e.cores {
		if len(c.delta) > 0 {
			clean = false
			break
		}
		bases[i] = c.base
	}
	e.mu.RUnlock()
	if !clean {
		e.mu.Lock()
		bases = e.foldLocked()
		e.mu.Unlock()
	}
	return oracleFor(e.schema, bases)
}

// MUPs returns the maximal uncovered patterns under opts. Results are
// cached per (Threshold, MaxLevel), with the least recently used
// configuration evicted beyond Options.MaxCachedSearches: a query at
// the current generation is answered from cache; after appends, the
// stale cached set is repaired incrementally via mup.Repair (its
// cached coverage values delta-updated from the added log, so
// untouched patterns cost no probes); after deletions or window
// evictions, via mup.RepairBidirectional seeded with the net retracted
// combinations (falling back to a full search once the removed log's
// horizon has passed the cached generation); a configuration seen for
// the first time runs the cold mup.Search. A level bound of 0, below 0,
// or at or past the attribute count is one configuration: the
// unbounded search.
//
// The search itself runs on the immutable per-core base snapshots
// outside the engine lock, so long lattice searches never stall
// concurrent readers or mutations; the result is linearized to the
// generation sampled when the search started.
// Concurrent first queries for the same configuration may duplicate
// work (last store wins). The caller must not modify the returned
// result.
func (e *ShardedEngine) MUPs(opts mup.Options) (*mup.Result, error) {
	res, _, err := e.mupsGen(opts)
	return res, err
}

// mupsGen is MUPs plus the data generation the returned result
// reflects — what the plan cache tags its entries with.
func (e *ShardedEngine) mupsGen(opts mup.Options) (*mup.Result, uint64, error) {
	opts.MaxLevel = canonLevel(opts.MaxLevel, len(e.cards))
	key := searchKey{tau: opts.Threshold, maxLevel: opts.MaxLevel}
	e.mu.RLock()
	if c, ok := e.cache[key]; ok && c.gen == e.gen {
		res := c.res
		gen := c.gen
		c.lastUsed.Store(e.useClock.Add(1))
		e.mu.RUnlock()
		e.cacheHits.Add(1)
		return res, gen, nil
	}
	e.mu.RUnlock()

	// Fold pending deltas (the lattice searches need the windowed
	// bit-vector probes of the base oracles) and snapshot the immutable
	// bases plus the stale cached set to repair from.
	e.mu.Lock()
	if c, ok := e.cache[key]; ok && c.gen == e.gen {
		c.lastUsed.Store(e.useClock.Add(1))
		e.mu.Unlock()
		e.cacheHits.Add(1)
		return c.res, c.gen, nil
	}
	bases := e.foldLocked()
	gen := e.gen
	var seed *mup.Result
	var removed, added []mup.Delta
	if c, ok := e.cache[key]; ok {
		// A stale cached set can seed a repair only if every
		// combination retracted since it was computed is still in the
		// removed log; past the log's horizon the set may be missing
		// newly uncovered regions and a full search is required. The
		// added log is an optimization only — when it has overflowed,
		// nil tells the repair to assume any coverage may have risen.
		if rm, _, ok := e.removed.since(c.gen, e.keys); ok {
			seed, removed = c.res, rm
			if ad, _, ok := e.added.since(c.gen, e.keys); ok {
				added = ad
			}
		}
	}
	e.mu.Unlock()

	oracle := oracleFor(e.schema, bases)

	// Bulk retraction: the repair costs one ancestor cube per removed
	// combination, so when the removed set covers most of the distinct
	// combinations the parallel search is cheaper — run it directly
	// instead. The floor keeps small absolute batches on the repair
	// path no matter how small the dataset: repairing a handful of
	// combinations is always cheaper than a search.
	const bulkRemovedFloor = 64
	if frac := e.opts.fullSearchRemovedFraction(); frac < 1 && len(removed) >= bulkRemovedFloor &&
		float64(len(removed)) > frac*float64(oracle.NumDistinct()) {
		seed, removed, added = nil, nil, nil
	}

	popts := mup.ParallelOptions{Options: opts, Workers: e.opts.Workers}
	var res *mup.Result
	var err error
	switch {
	case seed == nil:
		res, err = mup.Search(oracle, popts)
	case len(removed) == 0:
		res, err = mup.Repair(oracle, seed, added, popts)
	default:
		res, err = mup.RepairBidirectional(oracle, seed, removed, added, popts)
	}
	if err != nil {
		return nil, 0, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case seed == nil:
		e.fullSearches++
	case len(removed) == 0:
		e.repairs++
	default:
		e.bidirRepairs++
	}
	// A racing mutation may have advanced the generation; the stale
	// result is still stored (tagged with its own generation) so the
	// next query repairs from it instead of searching from scratch.
	if c, ok := e.cache[key]; !ok || c.gen <= gen {
		e.storeLocked(key, &cachedSearch{gen: gen, res: res})
	}
	return res, gen, nil
}

// storeLocked inserts a cache entry, evicting the least recently used
// one when the cache is full. Caller holds the write lock.
func (e *ShardedEngine) storeLocked(key searchKey, c *cachedSearch) {
	if _, ok := e.cache[key]; !ok && len(e.cache) >= e.opts.maxCachedSearches() {
		var victim searchKey
		first := true
		var oldest uint64
		for k, v := range e.cache {
			if u := v.lastUsed.Load(); first || u < oldest {
				first, oldest, victim = false, u, k
			}
		}
		delete(e.cache, victim)
	}
	c.lastUsed.Store(e.useClock.Add(1))
	e.cache[key] = c
}
