package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"coverage"
	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/enhance"
	"coverage/internal/mup"
	"coverage/internal/pattern"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// ndjsonChunk is covserve's ndjsonBatchRows: how many streamed rows the
// bulk handler hands to the store at a time.
const ndjsonChunk = 4096

// serverShards is covserve's default shard count: one per CPU, at most 16.
func serverShards() int { return min(runtime.GOMAXPROCS(0), 16) }

// inprocSystem is the traced run's system: the same layers covserve
// stacks, assembled from their public functions and called in handler
// order, with a span around every call. What it leaves out — HTTP,
// JSON, the mux, admission — is exactly what covserve.*.self_ms
// reports as the difference to the HTTP run.
type inprocSystem struct {
	root     string
	workload string
	dataDir  string
	opts     registry.Options
	reg      *registry.Registry
	t0       time.Time
	tracers  []*tracer

	mu    sync.Mutex
	twins map[string]*twin

	recoveries []*persist.RecoverInfo
	execs      []*inprocExec

	// What the cold-search twins measured beside their spans: the heap
	// cost of a search, and the paper's DEEPDIVER on the same oracle,
	// once per tenant and threshold. Only one client ever searches.
	searches, searchBytes, searchAllocs uint64
	deepdiver                           []float64 // ms
	baselined                           map[string]bool
}

// baselines adds those one-off measurements to extra.
func (s *inprocSystem) baselines(extra map[string]float64) {
	if len(s.deepdiver) > 0 {
		extra["mup.deepdiver_ms"] = median(s.deepdiver)
	}
	if s.searches > 0 {
		extra["mup.alloc_bytes_per_search"] = float64(s.searchBytes) / float64(s.searches)
		extra["mup.allocs_per_search"] = float64(s.searchAllocs) / float64(s.searches)
	}
}

// twin is the benchmark's shadow of one tenant: a memory-only engine
// fed the same mutations, and what the repeated inner calls need — the
// previous MUP result per threshold and the mutations since.
type twin struct {
	an  *coverage.Analyzer // over the durable engine, as the handler table holds it
	eng *engine.Engine     // memory-only twin

	mu      sync.Mutex
	added   map[string]int64 // net rows per combination since the last /mups
	removed map[string]int64
	prev    map[int64]*mup.Result
	planned map[[2]int64]bool
}

func (s *inprocSystem) boot() error {
	dir, err := newDataDir(s.root, s.workload+"-inproc")
	if err != nil {
		return err
	}
	s.dataDir = dir
	s.opts = registry.Options{Dir: dir, SyncWAL: true, Engine: engine.Options{Shards: serverShards()}}
	s.twins = map[string]*twin{}
	if s.baselined == nil {
		s.baselined = map[string]bool{}
	}
	if s.t0.IsZero() {
		s.t0 = time.Now()
	}
	s.reg, err = registry.Open(s.opts)
	return err
}

func (s *inprocSystem) client() executor {
	tr := newTracer(s.t0, len(s.tracers))
	s.tracers = append(s.tracers, tr)
	x := &inprocExec{sys: s, tr: tr}
	s.execs = append(s.execs, x)
	return x
}

// crash closes every store's files without parking or snapshotting —
// what the kernel does for a killed process — and forgets the registry.
func (s *inprocSystem) crash() {
	for _, info := range s.reg.List() {
		h, err := s.reg.Acquire(info.ID)
		if err != nil {
			continue
		}
		h.Store().Close()
		h.Release()
	}
	s.reg = nil
}

// restart recovers every tenant directory once by hand, for the
// recovery record, and then opens a registry over the data directory
// the way a booting covserve does (tenants restore on first use).
func (s *inprocSystem) restart() error {
	tr := newTracer(s.t0, len(s.tracers))
	s.tracers = append(s.tracers, tr)
	dirs, err := filepath.Glob(filepath.Join(s.dataDir, "tenants", "*"))
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		root := tr.root("op.recover")
		sp := tr.begin("persist.recover", root)
		store, err := persist.Open(dir, persist.Options{SyncWAL: true, Engine: s.opts.Engine})
		if err != nil {
			return err
		}
		_, info, err := store.Recover()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", dir, err)
		}
		s.recoveries = append(s.recoveries, info)
		if err := store.Close(); err != nil {
			return err
		}
	}
	s.reg, err = registry.Open(s.opts)
	return err
}

func (s *inprocSystem) stop() {
	if s.reg != nil {
		s.crash()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
		s.dataDir = ""
	}
}

// usage is not measured in process: the benchmark's own heap and CPU
// would be counted as the server's.
func (s *inprocSystem) usage() (procUsage, error) { return procUsage{}, nil }

func (s *inprocSystem) registry() (*registryCounters, error) {
	st := s.reg.Stats()
	return &registryCounters{Restores: st.Restores, Evictions: st.Evictions}, nil
}

func (s *inprocSystem) requests() (sent, failed int64) {
	for _, x := range s.execs {
		sent += x.calls
	}
	return sent, 0
}

func (s *inprocSystem) twin(id string) *twin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.twins[id]
}

// inprocExec is one client of the in-process stack.
type inprocExec struct {
	sys   *inprocSystem
	tr    *tracer
	calls int64 // operations issued, the in-process count of requests
}

// lease runs fn between registry.Acquire and Release, each in a span
// under root, as gateway.serveTenant does around every request.
func (x *inprocExec) lease(root int, id string, fn func(h *registry.Handle) error) error {
	x.calls++
	sp := x.tr.begin("registry.acquire", root)
	h, err := x.sys.reg.Acquire(id)
	x.tr.end(sp)
	if err != nil {
		return err
	}
	err = fn(h)
	sp = x.tr.begin("registry.release", root)
	h.Release()
	x.tr.end(sp)
	return err
}

func (x *inprocExec) create(id string, schema *dataset.Schema) (time.Duration, error) {
	x.calls++
	root := x.tr.root("op.create")
	sp := x.tr.begin("registry.ensure", root)
	_, err := x.sys.reg.Ensure(id, schema, registry.TenantOptions{})
	x.tr.end(sp)
	d := x.tr.end(root)
	if err != nil {
		return d, err
	}
	h, err := x.sys.reg.Acquire(id)
	if err != nil {
		return d, err
	}
	defer h.Release()
	x.sys.mu.Lock()
	x.sys.twins[id] = &twin{
		an:      coverage.NewAnalyzerFromEngine(h.Engine()),
		eng:     engine.New(schema, x.sys.opts.Engine),
		added:   map[string]int64{},
		removed: map[string]int64{},
		prev:    map[int64]*mup.Result{},
		planned: map[[2]int64]bool{},
	}
	x.sys.mu.Unlock()
	return d, nil
}

func (x *inprocExec) drop(id string) (time.Duration, error) {
	x.calls++
	root := x.tr.root("op.drop")
	sp := x.tr.begin("registry.drop", root)
	err := x.sys.reg.Drop(id)
	x.tr.end(sp)
	d := x.tr.end(root)
	x.sys.mu.Lock()
	delete(x.sys.twins, id)
	x.sys.mu.Unlock()
	return d, err
}

// note records a mutation for the next repair twin.
func (tw *twin) note(rows [][]uint8, into map[string]int64, cancel map[string]int64) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	for _, r := range rows {
		k := string(r)
		if cancel[k] > 0 {
			if cancel[k]--; cancel[k] == 0 {
				delete(cancel, k)
			}
			continue
		}
		into[k]++
	}
}

// takeDeltas returns and clears the net mutations since the last call.
func (tw *twin) takeDeltas() (removed, added []mup.Delta) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	list := func(m map[string]int64) []mup.Delta {
		out := make([]mup.Delta, 0, len(m))
		for k, n := range m {
			out = append(out, mup.Delta{Combo: pattern.FromKey(k), Count: n})
		}
		return out
	}
	removed, added = list(tw.removed), list(tw.added)
	tw.removed, tw.added = map[string]int64{}, map[string]int64{}
	return removed, added
}

// mutate is the body of /append, /delete and one chunk of a bulk
// stream: the store call in a span, then the same rows through the twin
// engine, charged to the store span as the engine's share of it.
func (x *inprocExec) mutate(root int, h *registry.Handle, tw *twin, rows [][]uint8, del bool) (func() error, error) {
	name, twinName := "persist.append", "engine.append"
	if del {
		name, twinName = "persist.delete", "engine.delete"
	}
	sp := x.tr.begin(name, root)
	var err error
	if del {
		err = h.Store().Delete(rows)
	} else {
		err = h.Store().Append(rows)
	}
	x.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return func() error {
		ts := x.tr.twin(twinName, sp)
		defer x.tr.end(ts)
		if del {
			tw.note(rows, tw.removed, tw.added)
			return tw.eng.Delete(rows)
		}
		tw.note(rows, tw.added, tw.removed)
		return tw.eng.Append(rows)
	}, nil
}

func (x *inprocExec) mutation(kind, id string, rows [][]uint8, del bool) (time.Duration, error) {
	tw := x.sys.twin(id)
	root := x.tr.root(kind)
	var after func() error
	err := x.lease(root, id, func(h *registry.Handle) (err error) {
		after, err = x.mutate(root, h, tw, rows, del)
		return err
	})
	d := x.tr.end(root)
	if err == nil {
		err = after()
	}
	return d, err
}

func (x *inprocExec) appendRows(id string, rows [][]uint8) (time.Duration, error) {
	return x.mutation("op.append", id, rows, false)
}

func (x *inprocExec) deleteRows(id string, rows [][]uint8) (time.Duration, error) {
	return x.mutation("op.delete", id, rows, true)
}

func (x *inprocExec) bulk(id string, rows [][]uint8) (time.Duration, error) {
	tw := x.sys.twin(id)
	root := x.tr.root("op.bulk")
	var after []func() error
	err := x.lease(root, id, func(h *registry.Handle) error {
		for lo := 0; lo < len(rows); lo += ndjsonChunk {
			fn, err := x.mutate(root, h, tw, rows[lo:min(lo+ndjsonChunk, len(rows))], false)
			if err != nil {
				return err
			}
			after = append(after, fn)
		}
		return nil
	})
	d := x.tr.end(root)
	for _, fn := range after {
		if err == nil {
			err = fn()
		}
	}
	return d, err
}

func (x *inprocExec) coverage(id string, req *coverageRequest) ([]int64, time.Duration, error) {
	root := x.tr.root("op.coverage")
	var covs []int64
	err := x.lease(root, id, func(h *registry.Handle) error {
		schema := h.Engine().Schema()
		sp := x.tr.begin("coverage.parse_pattern", root)
		ps := make([]coverage.Pattern, len(req.patterns))
		for i, raw := range req.patterns {
			p, err := coverage.ParsePattern(raw, schema)
			if err != nil {
				return err
			}
			ps[i] = p
		}
		x.tr.end(sp)
		sp = x.tr.begin("engine.coverage_batch", root)
		var err error
		covs, err = h.Engine().CoverageBatch(ps)
		x.tr.end(sp)
		return err
	})
	return covs, x.tr.end(root), err
}

// findMUPs is the part /mups and /plan share: Analyzer.FindMUPs in a
// span, and afterwards the twin of whatever the engine did inside it —
// a cache hit (Engine.MUPs again), a repair (mup.Repair or
// mup.RepairBidirectional from the previous result and the mutations
// since) or a cold search (mup.ParallelPatternBreaker on the engine's
// own oracle).
func (x *inprocExec) findMUPs(root int, id string, h *registry.Handle, tw *twin, tau int64) (*coverage.Report, func() error, error) {
	sp := x.tr.begin("coverage.find_mups", root)
	rep, err := tw.an.FindMUPs(coverage.FindOptions{Threshold: tau})
	x.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	eng := h.Engine()
	return rep, func() error {
		popts := mup.ParallelOptions{Options: mup.Options{Threshold: tau}}
		removed, added := tw.takeDeltas()
		prev := tw.prev[tau]
		var err error
		switch {
		case prev == nil:
			err = x.coldSearch(sp, id, eng, popts)
		case len(removed) > 0:
			ts := x.tr.twin("mup.repair_bidirectional", sp)
			_, err = mup.RepairBidirectional(eng.Oracle(), prev, removed, added, popts)
			x.tr.end(ts)
		case len(added) > 0:
			ts := x.tr.twin("mup.repair", sp)
			_, err = mup.Repair(eng.Oracle(), prev, added, popts)
			x.tr.end(ts)
		}
		if err != nil {
			return err
		}
		// The engine's answer is now cached, so this call is a hit: on a
		// hit operation it is the twin, otherwise it only fetches the
		// result the next repair twin starts from.
		hit := prev != nil && len(removed)+len(added) == 0
		var ts int
		if hit {
			ts = x.tr.twin("engine.mups_hit", sp)
		}
		res, err := eng.MUPs(popts.Options)
		if hit {
			x.tr.end(ts)
		}
		tw.prev[tau] = res
		return err
	}, nil
}

// coldSearch is the twin of a full search, with the heap counters read
// around it, and — the first time a tenant is searched at a threshold —
// the paper's DEEPDIVER on the same oracle as its own operation.
func (x *inprocExec) coldSearch(parent int, id string, eng *engine.Engine, popts mup.ParallelOptions) error {
	s := x.sys
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts := x.tr.twin("mup.search", parent)
	_, err := mup.ParallelPatternBreaker(eng.Oracle(), popts)
	x.tr.end(ts)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	s.searches++
	s.searchBytes += after.TotalAlloc - before.TotalAlloc
	s.searchAllocs += after.Mallocs - before.Mallocs
	key := fmt.Sprintf("%s/%d", id, popts.Threshold)
	if s.baselined[key] {
		return nil
	}
	s.baselined[key] = true
	root := x.tr.root("op.baseline")
	sp := x.tr.begin("mup.deepdiver", root)
	_, err = mup.DeepDiver(eng.Oracle(), popts.Options)
	s.deepdiver = append(s.deepdiver, ms(x.tr.end(sp)))
	x.tr.end(root)
	return err
}

func (x *inprocExec) mups(id string, tau int64) (*mupsAnswer, time.Duration, error) {
	tw := x.sys.twin(id)
	root := x.tr.root("op.mups")
	var rep *coverage.Report
	var after func() error
	err := x.lease(root, id, func(h *registry.Handle) (err error) {
		rep, after, err = x.findMUPs(root, id, h, tw, tau)
		return err
	})
	d := x.tr.end(root)
	if err != nil {
		return nil, d, err
	}
	if err := after(); err != nil {
		return nil, d, err
	}
	a := &mupsAnswer{
		Rows: tw.an.NumRows(), Threshold: rep.Threshold, Total: len(rep.MUPs),
		Algorithm: rep.Stats.Algorithm, Probes: rep.Stats.CoverageProbes,
		MUPs: make([]string, len(rep.MUPs)),
	}
	for i, p := range rep.MUPs {
		a.MUPs[i] = p.String()
	}
	return a, d, nil
}

func (x *inprocExec) plan(id string, tau int64, maxLevel int) (*planAnswer, time.Duration, error) {
	tw := x.sys.twin(id)
	root := x.tr.root("op.plan")
	var rep *coverage.Report
	var plan *coverage.Plan
	var after func() error
	var planSpan int
	err := x.lease(root, id, func(h *registry.Handle) (err error) {
		if rep, after, err = x.findMUPs(root, id, h, tw, tau); err != nil {
			return err
		}
		planSpan = x.tr.begin("engine.plan", root)
		plan, err = tw.an.PlanContext(context.Background(), rep, coverage.PlanOptions{MaxLevel: maxLevel})
		x.tr.end(planSpan)
		return err
	})
	d := x.tr.end(root)
	if err != nil {
		return nil, d, err
	}
	if err := after(); err != nil {
		return nil, d, err
	}
	if key := [2]int64{tau, int64(maxLevel)}; !tw.planned[key] {
		// A from-scratch plan: the engine expanded the target set and ran
		// the greedy search; repeat both on the same MUP set.
		tw.planned[key] = true
		cards := tw.an.Dataset().Cards()
		ts := x.tr.twin("enhance.targets", planSpan)
		targets, err := enhance.NewTargetSet(rep.MUPs, cards, enhance.Objective{MaxLevel: maxLevel}, nil)
		x.tr.end(ts)
		if err != nil {
			return nil, d, err
		}
		ts = x.tr.twin("enhance.greedy", planSpan)
		_, err = enhance.GreedySearch(targets.Targets(), cards, nil, enhance.SearchOptions{Workers: runtime.GOMAXPROCS(0)})
		x.tr.end(ts)
		if err != nil {
			return nil, d, err
		}
	}
	a := &planAnswer{
		Threshold: rep.Threshold, Targets: len(plan.Targets), Tuples: plan.NumTuples(),
		Algorithm: plan.Stats.Algorithm, Suggestions: make([]planSuggestion, len(plan.Suggestions)),
	}
	for i, sg := range plan.Suggestions {
		a.Suggestions[i] = planSuggestion{Collect: sg.Collect.String(), Combo: coverage.Pattern(sg.Combo).String()}
	}
	return a, d, nil
}

func (x *inprocExec) snapshot(id string) (time.Duration, error) {
	root := x.tr.root("op.snapshot")
	err := x.lease(root, id, func(h *registry.Handle) error {
		sp := x.tr.begin("persist.snapshot", root)
		_, err := h.Store().Snapshot()
		x.tr.end(sp)
		return err
	})
	return x.tr.end(root), err
}

func (x *inprocExec) rows(id string) (int64, error) {
	root := x.tr.root("op.rows")
	var n int64
	err := x.lease(root, id, func(h *registry.Handle) error {
		n = h.Engine().Rows()
		return nil
	})
	x.tr.end(root)
	return n, err
}

func (x *inprocExec) counters(id string) (*tenantCounters, error) {
	h, err := x.sys.reg.Acquire(id)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	es, ps := h.Engine().Stats(), h.Store().Stats()
	tc := &tenantCounters{
		Distinct: int64(es.Distinct), Compactions: es.Compactions,
		FullSearches: es.FullSearches, Repairs: es.Repairs, BidirRepairs: es.BidirectionalRepairs,
		CacheHits: es.CacheHits,
		PlanHits:  es.PlanHits, PlanBuilds: es.PlanBuilds,
		PlanTargetRepairs: es.PlanRepairs, PlanSeededRebuilds: es.PlanRebuilds,
		Snapshots: ps.Snapshots, DeltaSnapshots: ps.DeltaSnapshots,
		LastSnapshotBytes: ps.LastSnapshotBytes,
		WALRecords:        ps.WALRecords, WALBytes: ps.WALBytes,
		GroupCommits: ps.WALGroupCommits, GroupRecords: ps.WALGroupRecords,
		CoalescedAppends: ps.CoalescedAppends,
	}
	for _, sh := range es.Shards {
		tc.StoreBytes += sh.StoreBytes
	}
	return tc, nil
}
