package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"coverage/internal/countstore"
	"coverage/internal/dataset"
	"coverage/internal/enhance"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// State is the complete serializable state of an Engine: everything
// needed to rebuild an engine that answers every coverage and MUP
// query identically to the original and keeps repairing its caches
// across the restart. It is the unit of persistence — package persist
// encodes it to the snapshot format and back.
//
// The pending deltas are deliberately absent: Counts holds the merged
// multiplicities (bases + deltas), so a restored engine starts
// compacted. Coverage answers are unaffected; only the DeltaDistinct
// statistic resets.
//
// Every keyed table is a KeyCount list in strictly increasing raw-key
// byte order; an empty list is nil.
type State struct {
	// Attrs is the schema: attribute names and value dictionaries.
	Attrs []dataset.Attribute
	// Counts holds every distinct value combination with its positive
	// multiplicity, one list per shard core: list i holds the keys the
	// hash router sends to core i of len(Counts). A restore onto
	// len(Counts) cores builds each core straight from its list; any
	// other shard count re-partitions the lists.
	Counts [][]KeyCount
	// Rows is the live row count; it must equal the sum of Counts.
	Rows int64
	// Generation is the mutation-batch counter the cached searches and
	// mutation logs are tagged against.
	Generation uint64

	// Window is the sliding-window bound (0 = unbounded). WindowLog
	// lists the window's row combination keys in arrival order (live
	// rows plus Tombstones pending-delete entries); PendingDeletes
	// holds the tombstone multiplicities awaiting eviction.
	Window         int
	WindowLog      []string
	PendingDeletes []KeyCount
	Tombstones     int64

	// Removed and Added are the bounded mutation logs that seed
	// MUP-cache repair after a restart.
	Removed MutationLog
	Added   MutationLog

	// Cache holds the per-(τ, level) MUP search results, sorted by
	// (Tau, MaxLevel) for deterministic serialization.
	Cache []CachedSearch

	// Plans holds the cached remediation plans, sorted by their full
	// configuration key for deterministic serialization.
	Plans []CachedPlan

	// Counters are the monotonic operation counters reported by Stats,
	// preserved so /stats stays continuous across restarts.
	Counters Counters
}

// KeyCount is one value combination, as its raw value-code string, with
// a multiplicity.
type KeyCount struct {
	Key   string
	Count int64
}

// MutationLog is the serializable form of one bounded mutation log.
type MutationLog struct {
	// Horizon is the generation up to which entries have been trimmed.
	Horizon uint64
	// Recs lists the mutated combinations in nondecreasing generation
	// order.
	Recs []MutationRec
}

// MutationRec is one mutated combination at one generation, with the
// net signed multiplicity change: positive in the added log, negative
// in the removed log, never 0.
type MutationRec struct {
	Gen   uint64
	Key   string
	Count int64
}

// CachedSearch is one cached MUP search configuration and its result.
type CachedSearch struct {
	Tau      int64
	MaxLevel int
	// Gen is the data generation the result reflects (≤ the engine's
	// generation; stale entries are repaired on the next query).
	Gen  uint64
	MUPs []pattern.Pattern
	// Cov, when non-nil, is the per-MUP coverage value cache (parallel
	// to MUPs) that lets repairs delta-update instead of re-probe.
	Cov   []int64
	Stats mup.Stats
}

// CachedPlan is one cached remediation-plan configuration and its
// result: the plan-cache key (threshold, MUP level bound, objective,
// oracle and cost-model fingerprints), the generation the plan
// reflects, and the plan itself. A stale restored plan is checked
// like any other: its targets are re-expanded from the current MUPs
// and compared with Targets.
type CachedPlan struct {
	Tau           int64
	MUPMaxLevel   int
	MaxLevel      int
	MinValueCount uint64
	OracleFP      string
	CostFP        string
	// Gen is the data generation the plan reflects (≤ the engine's
	// generation; stale entries are re-checked on the next query).
	Gen       uint64
	Targets   []pattern.Pattern
	Algorithm string
	// Iterations mirrors enhance.PlanStats. NodesExplored is not kept:
	// a restored plan ran no search in this process; it restores as 0.
	Iterations  int
	Suggestions []PlanSuggestion
}

// PlanSuggestion is the serializable form of one enhance.Suggestion.
type PlanSuggestion struct {
	Combo   []uint8
	Collect pattern.Pattern
	Hits    []int
	Cost    float64
}

// keyLess orders cached plans by their full configuration key — the
// deterministic serialization order.
func (p CachedPlan) keyLess(q CachedPlan) bool {
	switch {
	case p.Tau != q.Tau:
		return p.Tau < q.Tau
	case p.MUPMaxLevel != q.MUPMaxLevel:
		return p.MUPMaxLevel < q.MUPMaxLevel
	case p.MaxLevel != q.MaxLevel:
		return p.MaxLevel < q.MaxLevel
	case p.MinValueCount != q.MinValueCount:
		return p.MinValueCount < q.MinValueCount
	case p.OracleFP != q.OracleFP:
		return p.OracleFP < q.OracleFP
	default:
		return p.CostFP < q.CostFP
	}
}

// Counters mirrors the monotonic fields of Stats.
type Counters struct {
	Appends              int64
	Deletes              int64
	Evictions            int64
	Compactions          int64
	FullSearches         int64
	Repairs              int64
	BidirectionalRepairs int64
	CacheHits            int64
	PlanProbes           int64
	PlanHits             int64
	PlanBuilds           int64
	PlanRepairs          int64
	PlanRebuilds         int64
}

// coreSnapshot is one core's share of a capture: the immutable base
// (shared by reference) plus a copy of the small pending delta.
type coreSnapshot struct {
	base  *index.Index
	delta []deltaEntry
}

// Capture is a point-in-time capture of the engine's state, taken
// cheaply under the read lock: the immutable per-core base oracles are
// shared by reference and only the small mutable residue is copied.
// Call State to complete it into a serializable State (the
// O(distinct) merge of bases and deltas), outside whatever lock gated
// the capture.
type Capture struct {
	st    *State
	cores []coreSnapshot
	codec *pattern.Codec // the engine's key layout
	// windowEvicted and windowEpoch pin the window log's coordinates at
	// capture time — the anchor Baseline carries so the next CaptureDelta
	// can express the log as a drop/append pair (they are not part of
	// State: a restored engine restarts both at zero).
	windowEvicted uint64
	windowEpoch   uint64
}

// ExportState captures and materializes the engine's full state for
// serialization. Callers that must not stall while the per-core count
// lists are merged (e.g. a store holding its mutation lock) should use
// CaptureState and materialize later.
func (e *ShardedEngine) ExportState() *State {
	return e.CaptureState().State()
}

// CaptureState snapshots the engine's state. The bulk of the state —
// the per-core base oracles' combo→count tables — is immutable and
// shared by reference, so the engine's read lock is held only long
// enough to copy the small mutable residue (the pending deltas, window
// log, mutation logs and cache headers). Concurrent queries, which
// also take the read lock, are never blocked.
func (e *ShardedEngine) CaptureState() *Capture {
	e.mu.RLock()
	cores := make([]coreSnapshot, len(e.cores))
	for i, c := range e.cores {
		cores[i] = coreSnapshot{base: c.base, delta: append([]deltaEntry(nil), c.delta...)}
	}
	st := &State{
		Rows:       e.rows,
		Generation: e.gen,
		Window:     e.window,
		Tombstones: e.tombstones,
		Removed:    MutationLog{Horizon: e.removed.horizon},
		Added:      MutationLog{Horizon: e.added.horizon},
		Counters:   e.countersLocked(),
	}
	removed, added := slices.Clone(e.removed.recs), slices.Clone(e.added.recs)
	windowEvicted, windowEpoch := e.windowEvicted, e.windowEpoch
	if e.log != nil {
		st.WindowLog = keyStrings(e.codec, e.log.live())
		st.PendingDeletes = countList(e.codec, e.pendingDeletes)
	}
	st.Cache = make([]CachedSearch, 0, len(e.cache))
	for key, c := range e.cache {
		// Cached results are immutable once stored, so the MUP and Cov
		// slices are shared, not copied.
		st.Cache = append(st.Cache, CachedSearch{
			Tau:      key.tau,
			MaxLevel: key.maxLevel,
			Gen:      c.gen,
			MUPs:     c.res.MUPs,
			Cov:      c.res.Cov,
			Stats:    c.res.Stats,
		})
	}
	st.Plans = make([]CachedPlan, 0, len(e.planCache))
	for key, c := range e.planCache {
		// Cached plans and their bases are immutable once stored, so
		// the pattern and suggestion slices are shared, not copied.
		st.Plans = append(st.Plans, exportPlan(key, c))
	}
	e.mu.RUnlock()

	st.Removed.Recs = exportRecs(removed, e.codec)
	st.Added.Recs = exportRecs(added, e.codec)
	sortSearches(st.Cache)
	sort.Slice(st.Plans, func(i, j int) bool { return st.Plans[i].keyLess(st.Plans[j]) })

	attrs := make([]dataset.Attribute, e.schema.Dim())
	for i := range attrs {
		attrs[i] = e.schema.Attr(i)
	}
	st.Attrs = attrs
	return &Capture{st: st, cores: cores, codec: e.codec, windowEvicted: windowEvicted, windowEpoch: windowEpoch}
}

// Baseline derives the DeltaBaseline describing the captured state —
// the anchor a later CaptureDelta expresses its changes against. The
// persistence layer calls it after writing a full snapshot.
func (c *Capture) Baseline() *DeltaBaseline {
	b := &DeltaBaseline{
		Generation:    c.st.Generation,
		WindowEpoch:   c.windowEpoch,
		WindowEvicted: c.windowEvicted,
		WindowLen:     len(c.st.WindowLog),
		Cache:         make([]CachedSearchRef, 0, len(c.st.Cache)),
		Plans:         make([]CachedPlanRef, 0, len(c.st.Plans)),
	}
	for _, s := range c.st.Cache {
		b.Cache = append(b.Cache, searchRefOf(s))
	}
	for _, p := range c.st.Plans {
		b.Plans = append(b.Plans, planRefOf(p))
	}
	return b
}

// State completes the capture: each core's base and delta are merged
// in packed form against the immutable base snapshots, with no engine
// lock involved, into the core's sorted list. Idempotent; the same
// State is returned on repeated calls.
func (c *Capture) State() *State {
	if c.st.Counts != nil {
		return c.st
	}
	counts := make([][]KeyCount, len(c.cores))
	var entries []index.Entry
	for i, core := range c.cores {
		entries = core.base.AppendEntries(entries[:0])
		for _, d := range core.delta {
			entries = append(entries, index.Entry{Key: d.key, Count: d.count})
		}
		counts[i] = keyCounts(c.codec, index.Normalize(c.codec, entries))
	}
	c.st.Counts = counts
	return c.st
}

// keyString is a key in the raw value-code string form State and
// StateDelta hold.
func keyString(codec *pattern.Codec, k pattern.PackedKey) string {
	var buf [pattern.MaxKeyBits]uint8
	return string(codec.AppendUnpack(buf[:0], k))
}

// keyStrings converts keys to their State form, in order.
func keyStrings(codec *pattern.Codec, keys []pattern.PackedKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = keyString(codec, k)
	}
	return out
}

// keyCounts converts normalized entries to their State form, in order;
// none is nil.
func keyCounts(codec *pattern.Codec, entries []index.Entry) []KeyCount {
	if len(entries) == 0 {
		return nil
	}
	out := make([]KeyCount, len(entries))
	for i, en := range entries {
		out[i] = KeyCount{Key: keyString(codec, en.Key), Count: en.Count}
	}
	return out
}

// countList converts a count table of positive counts to its State
// form.
func countList(codec *pattern.Codec, f *countstore.Flat) []KeyCount {
	entries := make([]index.Entry, 0, f.Len())
	f.Range(func(k pattern.PackedKey, n int64) { entries = append(entries, index.Entry{Key: k, Count: n}) })
	return keyCounts(codec, index.Normalize(codec, entries))
}

// exportRecs converts a log's records to their State form, each
// generation's in packed-key order. The log keeps them in the order
// they were recorded, which follows the slot order of the tables they
// were read from; sorting them here makes snapshot bytes a function of
// the mutation history alone, not of the shard count or of where a
// table placed its keys. It sorts recs in place: pass a copy.
func exportRecs(recs []mutRec, codec *pattern.Codec) []MutationRec {
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].gen == recs[lo].gen {
			hi++
		}
		slices.SortFunc(recs[lo:hi], func(a, b mutRec) int {
			if c := cmp.Compare(a.key[1], b.key[1]); c != 0 {
				return c
			}
			return cmp.Compare(a.key[0], b.key[0])
		})
		lo = hi
	}
	out := make([]MutationRec, len(recs))
	for i, r := range recs {
		out[i] = MutationRec{Gen: r.gen, Key: keyString(codec, r.key), Count: r.count}
	}
	return out
}

// NewFromState rebuilds an engine from a captured State. The state is
// validated before any construction — combination keys against the
// schema, list order, the routing of every key to its list, the row
// count against the multiplicity sum, window and tombstone accounting,
// log ordering and cache generations — so a corrupted or hand-edited
// state is rejected whole rather than restored partially.
//
// The shard count is opts.Shards when set (falling back to the
// COVSHARDS override, then to len(st.Counts)), so a snapshot written by
// a single-shard engine restores into a sharded one and vice versa:
// when the target count is len(st.Counts) every core is built straight
// from its list (in parallel), and only a different count re-partitions
// the lists through the hash router. The returned engine answers every
// coverage and MUP query identically to the engine the state was
// exported from.
func NewFromState(st *State, opts Options) (*Engine, error) {
	schema, err := dataset.NewSchema(st.Attrs)
	if err != nil {
		return nil, fmt.Errorf("engine: restoring schema: %w", err)
	}
	cards := schema.Cards()
	codec := pattern.NewKeyCodec(cards)
	validKey := func(what, k string) error {
		if len(k) != len(cards) {
			return fmt.Errorf("engine: %s combination has %d values, schema has %d attributes", what, len(k), len(cards))
		}
		for i := 0; i < len(k); i++ {
			if int(k[i]) >= cards[i] {
				return fmt.Errorf("engine: %s combination %v: value %d exceeds cardinality %d of attribute %q",
					what, pattern.Pattern(k), k[i], cards[i], schema.Attr(i).Name)
			}
		}
		return nil
	}

	// Every key valid, strictly increasing within its list, routed to
	// it, and its count positive.
	lists := st.Counts
	var sum int64
	for s, list := range lists {
		for i, kc := range list {
			if err := validKey("count", kc.Key); err != nil {
				return nil, err
			}
			if i > 0 && list[i-1].Key >= kc.Key {
				return nil, fmt.Errorf("engine: shard %d count keys not strictly increasing at entry %d", s, i)
			}
			if got := shardOfRow(kc.Key, len(lists)); got != s {
				return nil, fmt.Errorf("engine: combination %v stored on shard %d, router says %d of %d",
					pattern.Pattern(kc.Key), s, got, len(lists))
			}
			if kc.Count <= 0 {
				return nil, fmt.Errorf("engine: combination %v has non-positive multiplicity %d", pattern.Pattern(kc.Key), kc.Count)
			}
			sum += kc.Count
		}
	}
	if sum != st.Rows {
		return nil, fmt.Errorf("engine: state claims %d rows but multiplicities sum to %d", st.Rows, sum)
	}
	if st.Window < 0 {
		return nil, fmt.Errorf("engine: negative window %d", st.Window)
	}
	var pendingSum int64
	for i, kc := range st.PendingDeletes {
		if err := validKey("pending-delete", kc.Key); err != nil {
			return nil, err
		}
		if i > 0 && st.PendingDeletes[i-1].Key >= kc.Key {
			return nil, fmt.Errorf("engine: pending-delete keys not strictly increasing at entry %d", i)
		}
		if kc.Count <= 0 {
			return nil, fmt.Errorf("engine: pending delete of %v has non-positive multiplicity %d", pattern.Pattern(kc.Key), kc.Count)
		}
		pendingSum += kc.Count
	}
	if pendingSum != st.Tombstones {
		return nil, fmt.Errorf("engine: state claims %d tombstones but pending deletes sum to %d", st.Tombstones, pendingSum)
	}
	if st.Window > 0 {
		if int64(len(st.WindowLog)) != st.Rows+st.Tombstones {
			return nil, fmt.Errorf("engine: window log has %d entries, want %d rows + %d tombstones",
				len(st.WindowLog), st.Rows, st.Tombstones)
		}
		for _, k := range st.WindowLog {
			if err := validKey("window-log", k); err != nil {
				return nil, err
			}
		}
	}
	for _, l := range []struct {
		name string
		log  MutationLog
		sign int64
	}{{"removed", st.Removed, -1}, {"added", st.Added, 1}} {
		var prev uint64
		for i, r := range l.log.Recs {
			if err := validKey(l.name+"-log", r.Key); err != nil {
				return nil, err
			}
			if i > 0 && r.Gen < prev {
				return nil, fmt.Errorf("engine: %s log generations decrease at entry %d", l.name, i)
			}
			if r.Gen > st.Generation {
				return nil, fmt.Errorf("engine: %s log entry %d has generation %d beyond state generation %d",
					l.name, i, r.Gen, st.Generation)
			}
			if r.Count == 0 {
				return nil, fmt.Errorf("engine: %s log entry %d has count 0", l.name, i)
			}
			if r.Count*l.sign < 0 {
				return nil, fmt.Errorf("engine: %s log entry %d has count %d of the wrong sign", l.name, i, r.Count)
			}
			prev = r.Gen
		}
	}
	for pi, p := range st.Plans {
		if p.Gen > st.Generation {
			return nil, fmt.Errorf("engine: cached plan %d has generation %d beyond state generation %d", pi, p.Gen, st.Generation)
		}
		if (p.MaxLevel > 0) == (p.MinValueCount > 0) {
			return nil, fmt.Errorf("engine: cached plan %d must set exactly one of MaxLevel and MinValueCount", pi)
		}
		for _, m := range p.Targets {
			if err := m.Validate(cards); err != nil {
				return nil, fmt.Errorf("engine: cached plan %d: %w", pi, err)
			}
		}
		for si, s := range p.Suggestions {
			if err := validKey("plan-suggestion", string(s.Combo)); err != nil {
				return nil, err
			}
			if err := s.Collect.Validate(cards); err != nil {
				return nil, fmt.Errorf("engine: cached plan %d suggestion %d: %w", pi, si, err)
			}
			for _, h := range s.Hits {
				if h < 0 || h >= len(p.Targets) {
					return nil, fmt.Errorf("engine: cached plan %d suggestion %d hits target %d of %d", pi, si, h, len(p.Targets))
				}
			}
		}
	}
	for _, c := range st.Cache {
		if c.Gen > st.Generation {
			return nil, fmt.Errorf("engine: cached search (τ=%d, level=%d) has generation %d beyond state generation %d",
				c.Tau, c.MaxLevel, c.Gen, st.Generation)
		}
		if c.Cov != nil && len(c.Cov) != len(c.MUPs) {
			return nil, fmt.Errorf("engine: cached search (τ=%d, level=%d) has %d coverage values for %d MUPs",
				c.Tau, c.MaxLevel, len(c.Cov), len(c.MUPs))
		}
		for _, v := range c.Cov {
			if v < 0 {
				return nil, fmt.Errorf("engine: cached search (τ=%d, level=%d) has negative coverage value %d", c.Tau, c.MaxLevel, v)
			}
		}
		for _, p := range c.MUPs {
			if err := p.Validate(cards); err != nil {
				return nil, fmt.Errorf("engine: cached search (τ=%d, level=%d): %w", c.Tau, c.MaxLevel, err)
			}
		}
	}

	// Resolve the target shard count: explicit option, then the
	// COVSHARDS override, then the state's own list count — capped
	// like every other path, so a crafted snapshot declaring millions
	// of (empty) shard sections cannot spawn unbounded cores; past the
	// cap the state simply re-shards.
	n := min(max(len(lists), 1), maxShards)
	if opts.Shards > 0 || envShards() > 0 {
		n = opts.shardCount()
	}

	e := &ShardedEngine{
		schema:    schema,
		cards:     cards,
		opts:      opts,
		codec:     codec,
		cores:     make([]*shardCore, n),
		cache:     make(map[searchKey]*cachedSearch, len(st.Cache)),
		planCache: make(map[planKey]*cachedPlan, len(st.Plans)),
		rows:      st.Rows,
		gen:       st.Generation,
		window:    st.Window,
		removed: mutLog{
			horizon: st.Removed.Horizon,
			recs:    importRecs(st.Removed.Recs, codec),
		},
		added: mutLog{
			horizon: st.Added.Horizon,
			recs:    importRecs(st.Added.Recs, codec),
		},
		appends:         st.Counters.Appends,
		deletes:         st.Counters.Deletes,
		evictions:       st.Counters.Evictions,
		compactionsBase: st.Counters.Compactions,
		fullSearches:    st.Counters.FullSearches,
		repairs:         st.Counters.Repairs,
		bidirRepairs:    st.Counters.BidirectionalRepairs,
		planBuilds:      st.Counters.PlanBuilds,
		planRepairs:     st.Counters.PlanRepairs,
		planRebuilds:    st.Counters.PlanRebuilds,
	}
	e.cacheHits.Store(st.Counters.CacheHits)
	e.planProbes.Store(st.Counters.PlanProbes)
	e.planHits.Store(st.Counters.PlanHits)

	parts := make([][]index.Entry, n)
	if len(lists) == n {
		// Matching topology: each core builds from its list.
		for i, list := range lists {
			parts[i] = make([]index.Entry, len(list))
			for j, kc := range list {
				parts[i][j] = index.Entry{Key: codec.PackedKeyString(kc.Key), Count: kc.Count}
			}
		}
	} else {
		// Re-shard on restore: route every combination through the
		// hash router for the target count; the builder sorts each
		// partition into value order.
		for _, list := range lists {
			for _, kc := range list {
				s := shardOfRow(kc.Key, n)
				parts[s] = append(parts[s], index.Entry{Key: codec.PackedKeyString(kc.Key), Count: kc.Count})
			}
		}
	}
	fanOut(n, func(i int) {
		core := newShardCore(schema, opts)
		core.compactions = 0
		part := parts[i]
		core.counts = countstore.NewFlat(len(part))
		for _, en := range part {
			core.counts.Set(en.Key, en.Count)
			core.rows += en.Count
		}
		// Key lists in value order are checked, not sorted again.
		core.base = index.BuildFromKeys(schema, part)
		core.pool = core.base.NewPool()
		e.cores[i] = core
	})

	if st.Window > 0 {
		e.log = &keyRing{keys: make([]pattern.PackedKey, len(st.WindowLog))}
		for i, k := range st.WindowLog {
			e.log.keys[i] = codec.PackedKeyString(k)
		}
		e.pendingDeletes = countstore.NewFlat(len(st.PendingDeletes))
		for _, kc := range st.PendingDeletes {
			e.pendingDeletes.Set(codec.PackedKeyString(kc.Key), kc.Count)
		}
		e.tombstones = st.Tombstones
	}
	// Restored cache entries get fresh LRU stamps in slice order; the
	// pre-restart recency ordering is not preserved. Level bounds are
	// canonicalized, so two entries a snapshot holds for one answer
	// collapse into one, the newer generation winning.
	for _, c := range st.Cache {
		if len(e.cache) >= opts.maxCachedSearches() {
			break
		}
		key := searchKey{tau: c.Tau, maxLevel: canonLevel(c.MaxLevel, len(cards))}
		if prev, ok := e.cache[key]; ok && prev.gen >= c.Gen {
			continue
		}
		entry := &cachedSearch{
			gen: c.Gen,
			res: &mup.Result{MUPs: c.MUPs, Cov: c.Cov, Stats: c.Stats},
		}
		if c.Gen == st.Generation {
			// Only an entry at the current generation can be a hit; an
			// older one seeds a repair, whose entry takes the row count
			// of its own generation.
			entry.rows = st.Rows
		}
		entry.lastUsed.Store(e.useClock.Add(1))
		e.cache[key] = entry
	}
	for _, p := range st.Plans {
		if len(e.planCache) >= opts.maxCachedPlans() {
			break
		}
		plan := &enhance.Plan{
			Targets: p.Targets,
			Stats: enhance.PlanStats{
				Algorithm:  p.Algorithm,
				Iterations: p.Iterations,
			},
		}
		for _, s := range p.Suggestions {
			plan.Suggestions = append(plan.Suggestions, enhance.Suggestion{
				Combo:   s.Combo,
				Collect: s.Collect,
				Hits:    s.Hits,
				Cost:    s.Cost,
			})
		}
		entry := &cachedPlan{gen: p.Gen, plan: plan}
		entry.last.Store(e.useClock.Add(1))
		e.planCache[planKey{
			tau:           p.Tau,
			mupMaxLevel:   canonLevel(p.MUPMaxLevel, len(cards)),
			maxLevel:      p.MaxLevel,
			minValueCount: p.MinValueCount,
			oracleFP:      p.OracleFP,
			costFP:        p.CostFP,
		}] = entry
	}
	return e, nil
}

func importRecs(recs []MutationRec, codec *pattern.Codec) []mutRec {
	if len(recs) == 0 {
		return nil
	}
	out := make([]mutRec, len(recs))
	for i, r := range recs {
		out[i] = mutRec{gen: r.Gen, key: codec.PackedKeyString(r.Key), count: r.Count}
	}
	return out
}
