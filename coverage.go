// Package coverage assesses and remedies the coverage of a categorical
// dataset, implementing Asudeh, Jin & Jagadish, "Assessing and
// Remedying Coverage for a Given Dataset" (ICDE 2019).
//
// Coverage asks whether every combination of attribute values — every
// demographic subgroup, every product category intersection — has
// enough representatives in a dataset. Subgroups below a coverage
// threshold τ are summarized by their maximal uncovered patterns
// (MUPs): uncovered patterns all of whose generalizations are covered.
// The package identifies MUPs with the paper's algorithms
// (PATTERN-BREAKER, PATTERN-COMBINER, DEEPDIVER, plus the naïve and
// apriori baselines) and computes minimum additional-data-collection
// plans that raise the dataset's maximum covered level, via a greedy
// hitting-set planner constrained by a semantic validation oracle.
//
// Basic use:
//
//	ds, _ := coverage.ReadCSV(file, coverage.CSVOptions{Columns: []string{"sex", "age", "race"}})
//	an := coverage.NewAnalyzer(ds)
//	rep, _ := an.FindMUPs(coverage.FindOptions{Threshold: 30})
//	for i, p := range rep.MUPs {
//		fmt.Println(p, "=", rep.Describe(i))
//	}
//	plan, _ := an.Plan(rep, coverage.PlanOptions{MaxLevel: 2})
//	for _, s := range plan.Suggestions {
//		fmt.Println("collect:", ds.Schema().DescribePattern(s.Collect))
//	}
package coverage

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/enhance"
	"coverage/internal/mup"
	"coverage/internal/pattern"
	"coverage/internal/persist"
	"coverage/internal/report"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Dataset is a collection of rows over categorical attributes.
	Dataset = dataset.Dataset
	// Schema describes the attributes of interest.
	Schema = dataset.Schema
	// Attribute is one categorical attribute with its value labels.
	Attribute = dataset.Attribute
	// Buckets discretizes a continuous attribute.
	Buckets = dataset.Buckets
	// CSVOptions controls CSV ingestion.
	CSVOptions = dataset.CSVOptions
	// Pattern is a vector of value codes with Wildcard for
	// unspecified attributes.
	Pattern = pattern.Pattern
	// Plan is an additional-data-collection plan.
	Plan = enhance.Plan
	// Suggestion is one value combination to collect.
	Suggestion = enhance.Suggestion
	// Rule is a validation rule describing an invalid combination.
	Rule = enhance.Rule
	// Condition restricts one attribute within a Rule.
	Condition = enhance.Condition
	// Oracle validates value combinations against a rule set.
	Oracle = enhance.Oracle
	// CostModel assigns additive acquisition costs to combinations.
	CostModel = enhance.CostModel
	// MUPStats reports the cost of a MUP search.
	MUPStats = mup.Stats
)

// Wildcard is the pattern code for an unspecified attribute value.
const Wildcard = pattern.Wildcard

// NewSchema validates and builds a schema.
func NewSchema(attrs []Attribute) (*Schema, error) { return dataset.NewSchema(attrs) }

// NewDataset returns an empty dataset over the schema.
func NewDataset(schema *Schema) *Dataset { return dataset.New(schema) }

// ReadCSV ingests a CSV stream with a header row; see
// dataset.ReadCSV.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) { return dataset.ReadCSV(r, opts) }

// NewBuckets builds a discretizer for a continuous attribute.
func NewBuckets(name string, bounds []float64, labels []string) (*Buckets, error) {
	return dataset.NewBuckets(name, bounds, labels)
}

// ParsePattern parses the compact pattern notation ("X1X0", "[12]XX")
// against the schema.
func ParsePattern(s string, schema *Schema) (Pattern, error) {
	return pattern.Parse(s, schema.Cards())
}

// NewOracle builds a validation oracle over the schema from rules.
func NewOracle(schema *Schema, rules []Rule) (*Oracle, error) {
	return enhance.NewOracle(schema.Cards(), rules)
}

// NewCostModel builds an acquisition cost model over the schema:
// costs[i][v] is the (positive) cost contribution of attribute i
// taking value v.
func NewCostModel(schema *Schema, costs [][]float64) (*CostModel, error) {
	return enhance.NewCostModel(schema.Cards(), costs)
}

// CollectRows simulates data acquisition for a plan: copies tuples per
// suggestion, drawn uniformly from the combinations matching each
// suggestion's generalized Collect pattern (rejecting oracle-invalid
// draws). Append them to the dataset to realize the plan.
func CollectRows(rng *rand.Rand, plan *Plan, schema *Schema, oracle *Oracle, copies int) ([][]uint8, error) {
	return enhance.Collect(rng, plan, schema.Cards(), oracle, copies)
}

// Algorithm selects a MUP-identification algorithm.
type Algorithm string

// The available MUP-identification algorithms.
const (
	// Auto uses the analyzer's incremental engine: results are cached
	// per threshold and repaired in place after appends. Explicit
	// algorithm choices below always run a fresh search.
	Auto Algorithm = ""
	// PatternBreaker is the top-down traversal (§III-C), fastest when
	// MUPs are general (high thresholds).
	PatternBreaker Algorithm = "pattern-breaker"
	// PatternCombiner is the bottom-up traversal (§III-D), fastest
	// when MUPs are specific (low thresholds) and cardinalities small.
	PatternCombiner Algorithm = "pattern-combiner"
	// DeepDiver is the dive-and-climb search (§III-E), robust across
	// coverage regimes.
	DeepDiver Algorithm = "deepdiver"
	// Apriori is the frequent-itemset baseline of §V-C.
	Apriori Algorithm = "apriori"
	// NaiveAlgorithm enumerates the full pattern graph (§III-A); for
	// tiny schemas and testing only.
	NaiveAlgorithm Algorithm = "naive"
)

// FindOptions configures FindMUPs.
type FindOptions struct {
	// Threshold is the absolute coverage threshold τ. Exactly one of
	// Threshold and ThresholdRate must be set.
	Threshold int64
	// ThresholdRate sets τ as a fraction of the dataset size (the
	// paper's "threshold rate", e.g. 0.001 for 0.1%).
	ThresholdRate float64
	// Algorithm selects the search strategy. Auto is the engine's
	// cached search: a result cached per (τ, MaxLevel), repaired after
	// mutations, and computed cold by mup.Search (the pattern cube where
	// the lattice fits, the parallel PATTERN-BREAKER otherwise).
	Algorithm Algorithm
	// MaxLevel, when positive, restricts discovery to MUPs of at most
	// that many deterministic attributes.
	MaxLevel int
}

// Report is the result of a MUP audit: the maximal uncovered patterns
// of the dataset under the resolved threshold.
type Report struct {
	// MUPs are the maximal uncovered patterns, sorted by level.
	MUPs []Pattern
	// Threshold is the resolved absolute τ.
	Threshold int64
	// Stats records the search cost.
	Stats MUPStats

	schema *Schema
	// ans is the engine answer the report was built from: the row
	// count the MUPs reflect and, on the Auto path, the cache entry a
	// body can be kept with.
	ans engine.Answer
	// auto records that the report came from the engine's cached Auto
	// path, and findMaxLevel the FindOptions.MaxLevel it ran under —
	// together they let Plan route the report back through the
	// engine's incremental plan cache.
	auto         bool
	findMaxLevel int
}

// LevelHistogram returns the number of MUPs per level (the paper's
// Fig 6 series).
func (r *Report) LevelHistogram() []int {
	h := make([]int, r.schema.Dim()+1)
	for _, p := range r.MUPs {
		h[p.Level()]++
	}
	return h
}

// Rows returns the number of live rows the MUPs were found over: the
// row count of the same generation the search read, however many
// mutations landed since.
func (r *Report) Rows() int64 { return r.ans.Rows }

// Body returns a serialized form of the report kept with the engine
// cache entry it was answered from, calling build to make it the first
// time that entry is asked. A server stores the reply it encoded this
// way, so every later identical query writes stored bytes. build must
// depend on nothing but the report and its schema, and the caller must
// not modify the bytes. The body is dropped with its entry (on repair
// or eviction), counted in the engine's ResidentBytes, and never
// persisted. Body returns nil, without calling build, for a report no
// cache entry holds: one from an explicit Algorithm, or one a racing
// search superseded.
//
// When the report's search replaced an older cached result for the
// same threshold and level — a repair after a mutation — build receives
// that result's MUPs and, if one was kept, its body, so that it can
// copy the bytes of the MUPs that survived instead of encoding them
// again; otherwise both are nil. The body build returns must not depend
// on whether it used them.
func (r *Report) Body(build func(prevMUPs []Pattern, prevBody []byte) []byte) []byte {
	return r.ans.Body(func(prev *mup.Result, prevBody []byte) []byte {
		var prevMUPs []Pattern
		if prev != nil {
			prevMUPs = prev.MUPs
		}
		return build(prevMUPs, prevBody)
	})
}

// Describe renders MUP i with attribute and value names.
func (r *Report) Describe(i int) string {
	return r.schema.DescribePattern(r.MUPs[i])
}

// Render writes the report as "text", "markdown" or "json" — the
// dataset nutritional-label widget of the paper's introduction.
func (r *Report) Render(w io.Writer, format string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	audit := &report.Audit{
		Schema:    r.schema,
		Rows:      int(r.ans.Rows),
		Threshold: r.Threshold,
		MUPs:      r.MUPs,
		Stats:     r.Stats,
	}
	return audit.Write(w, f)
}

// Analyzer owns the coverage engine for one dataset and answers MUP,
// coverage and enhancement queries against it. Build it once per
// dataset; it is cheap to query repeatedly and safe for concurrent
// use. New rows are fed through Append; queries always reflect all
// appended data, with MUP sets repaired incrementally rather than
// recomputed.
type Analyzer struct {
	ds  *Dataset
	eng *engine.Engine
}

// NewAnalyzer indexes the dataset for coverage queries. The engine
// underneath is the sharded coordinator with its default layout (one
// core unless the COVSHARDS override is set); use
// NewAnalyzerFromDataset to pick the shard count explicitly.
func NewAnalyzer(ds *Dataset) *Analyzer {
	return NewAnalyzerFromDataset(ds, engine.Options{})
}

// NewAnalyzerFromDataset indexes the dataset with explicit engine
// options — most usefully Options.Shards, which hash-partitions the
// combo space across N shard cores (parallel ingest and compaction,
// identical answers).
func NewAnalyzerFromDataset(ds *Dataset, opts engine.Options) *Analyzer {
	return &Analyzer{ds: ds, eng: engine.NewFromDataset(ds, opts)}
}

// NewAnalyzerFromEngine wraps an existing engine — typically one
// recovered from a snapshot — in an Analyzer. The analyzer's Dataset
// is an empty dataset over the engine's schema: after a restore the
// engine is the sole source of truth for rows and coverage, and the
// dataset serves only schema lookups (pattern parsing, descriptions).
func NewAnalyzerFromEngine(eng *engine.Engine) *Analyzer {
	return &Analyzer{ds: dataset.New(eng.Schema()), eng: eng}
}

// SnapshotTo writes the analyzer's complete engine state to w in the
// durable snapshot format (versioned, checksummed; see
// internal/persist). The capture shares the engine's immutable base
// by reference, so concurrent queries are not blocked. It returns the
// number of bytes written.
func (a *Analyzer) SnapshotTo(w io.Writer) (int64, error) {
	return persist.WriteSnapshot(w, a.eng.ExportState())
}

// RestoreAnalyzer rebuilds an analyzer from a snapshot stream written
// by SnapshotTo. The restored analyzer answers every coverage and MUP
// query identically to the one that wrote the snapshot, including its
// incrementally repairable MUP caches. Damaged input fails whole —
// with persist.ErrChecksum, persist.ErrVersion or a validation error
// — never with a partially restored analyzer.
func RestoreAnalyzer(r io.Reader) (*Analyzer, error) {
	st, err := persist.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewFromState(st, engine.Options{})
	if err != nil {
		return nil, err
	}
	return NewAnalyzerFromEngine(eng), nil
}

// Dataset returns the dataset the analyzer was built from. It is not
// updated by Append; the engine is the source of truth for row counts
// and coverage after appends.
func (a *Analyzer) Dataset() *Dataset { return a.ds }

// Engine returns the underlying incremental coverage engine.
func (a *Analyzer) Engine() *engine.Engine { return a.eng }

// Append validates and adds a batch of rows to the analyzed data.
// Subsequent Coverage, FindMUPs, Profile and Plan calls reflect the
// appended rows without rebuilding the index from scratch.
func (a *Analyzer) Append(rows [][]uint8) error { return a.eng.Append(rows) }

// Delete validates and retracts a batch of rows. The batch is atomic:
// if any row's value combination lacks the multiplicity to delete, no
// row is removed and an error is returned. Deletions break the
// monotonicity appends enjoy — previously covered patterns can fall
// back below τ — so cached MUP sets are repaired bidirectionally (the
// newly uncovered frontier read off one ancestor cube per retracted
// combination, at no oracle probe) rather than recomputed.
func (a *Analyzer) Delete(rows [][]uint8) error { return a.eng.Delete(rows) }

// SetWindow bounds the analyzed data to a sliding window of the most
// recent maxRows rows: once full, every append evicts the oldest rows.
// maxRows <= 0 removes the window. Rows already present when the
// window is first enabled have no recorded arrival order and evict
// before any later append, in sorted combination order.
func (a *Analyzer) SetWindow(maxRows int) { a.eng.SetWindow(maxRows) }

// Window returns the configured sliding-window bound (0 = unbounded).
func (a *Analyzer) Window() int { return a.eng.Window() }

// NumRows returns the current row count, including appended batches.
func (a *Analyzer) NumRows() int64 { return a.eng.Rows() }

// Coverage returns cov(P): the number of rows matching the pattern.
func (a *Analyzer) Coverage(p Pattern) (int64, error) {
	return a.eng.Coverage(p)
}

// resolveThreshold turns FindOptions' threshold spec into an absolute τ.
func (a *Analyzer) resolveThreshold(opts FindOptions) (int64, error) {
	switch {
	case opts.Threshold > 0 && opts.ThresholdRate > 0:
		return 0, fmt.Errorf("coverage: set either Threshold or ThresholdRate, not both")
	case opts.Threshold > 0:
		return opts.Threshold, nil
	case opts.ThresholdRate > 0:
		if opts.ThresholdRate > 1 {
			return 0, fmt.Errorf("coverage: ThresholdRate %v exceeds 1", opts.ThresholdRate)
		}
		tau := int64(opts.ThresholdRate * float64(a.eng.Rows()))
		if tau < 1 {
			tau = 1
		}
		return tau, nil
	default:
		return 0, fmt.Errorf("coverage: a positive Threshold or ThresholdRate is required")
	}
}

// FindMUPs runs a MUP search over the dataset.
func (a *Analyzer) FindMUPs(opts FindOptions) (*Report, error) {
	tau, err := a.resolveThreshold(opts)
	if err != nil {
		return nil, err
	}
	mopts := mup.Options{Threshold: tau, MaxLevel: opts.MaxLevel}
	var ans engine.Answer
	if opts.Algorithm == Auto {
		// The engine caches the result per (τ, MaxLevel) and repairs it
		// incrementally after appends.
		ans, err = a.eng.MUPsAnswer(mopts)
	} else {
		// The oracle is one immutable generation: its total is the row
		// count the search ran over.
		oracle := a.eng.Oracle()
		ans.Rows = oracle.Total()
		switch opts.Algorithm {
		case DeepDiver:
			ans.Res, err = mup.DeepDiver(oracle, mopts)
		case PatternBreaker:
			ans.Res, err = mup.PatternBreaker(oracle, mopts)
		case PatternCombiner:
			ans.Res, err = mup.PatternCombiner(oracle, mopts)
		case Apriori:
			ans.Res, err = mup.Apriori(oracle, mopts)
		case NaiveAlgorithm:
			ans.Res, err = mup.Naive(oracle, mopts)
		default:
			return nil, fmt.Errorf("coverage: unknown algorithm %q", opts.Algorithm)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		MUPs:         ans.Res.MUPs,
		Threshold:    tau,
		Stats:        ans.Res.Stats,
		schema:       a.ds.Schema(),
		ans:          ans,
		auto:         opts.Algorithm == Auto,
		findMaxLevel: opts.MaxLevel,
	}, nil
}

// ProfilePoint is one row of a coverage profile: the MUP population at
// one threshold.
type ProfilePoint struct {
	ThresholdRate float64
	Threshold     int64
	TotalMUPs     int
	// MinLevel is the most general (smallest) MUP level, or 0 when
	// there are no MUPs; general gaps are the harmful ones (§IV).
	MinLevel int
}

// Profile sweeps threshold rates and reports how the MUP population
// responds — a compact coverage characterization of the dataset
// suitable for its nutritional label. Rates must be in (0, 1].
func (a *Analyzer) Profile(rates []float64) ([]ProfilePoint, error) {
	out := make([]ProfilePoint, 0, len(rates))
	for _, r := range rates {
		rep, err := a.FindMUPs(coverageOptionsForRate(r))
		if err != nil {
			return nil, fmt.Errorf("coverage: profile at rate %v: %w", r, err)
		}
		pt := ProfilePoint{ThresholdRate: r, Threshold: rep.Threshold, TotalMUPs: len(rep.MUPs)}
		for _, p := range rep.MUPs {
			if pt.MinLevel == 0 || p.Level() < pt.MinLevel {
				pt.MinLevel = p.Level()
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

func coverageOptionsForRate(r float64) FindOptions {
	return FindOptions{ThresholdRate: r}
}

// PlanOptions configures enhancement planning. Plan refuses an
// invalid objective — neither or both of MaxLevel and MinValueCount,
// or MaxLevel past the dimension — before any search.
type PlanOptions struct {
	// MaxLevel is λ: after collecting the plan's suggestions, no
	// pattern at level ≤ λ remains uncovered. Exactly one of MaxLevel
	// and MinValueCount must be set.
	MaxLevel int
	// MinValueCount selects the alternative objective: cover every
	// uncovered pattern matched by at least this many value
	// combinations (Definition 7).
	MinValueCount uint64
	// Oracle, when non-nil, restricts suggestions to semantically
	// valid combinations.
	Oracle *Oracle
	// Cost, when non-nil, switches to the weighted objective: each
	// greedy selection maximizes newly covered patterns per unit
	// acquisition cost.
	Cost *CostModel
	// Naive selects the unoptimized hitting-set baseline (for
	// comparison; exponential in the number of attributes).
	Naive bool
}

// Plan computes the additional data collection that remedies the lack
// of coverage reported by rep (paper Problem 2). Suggestions are value
// combinations; each Suggestion.Collect generalizes its combination to
// the pattern a data collector can recruit from. Collecting τ rows per
// suggestion is always sufficient to reach the target.
//
// Reports from the Auto algorithm route through the engine's cached
// planner: plans are cached per (threshold, objective, oracle, cost
// model) and, after mutations, kept when the targets re-expanded from
// the repaired MUPs are unchanged and re-planned when they changed —
// the result is always identical to planning from scratch. Reports
// from explicit algorithms, and the Naive baseline, plan one-shot.
// Both paths expand targets with enhance.NewTargetSet.
func (a *Analyzer) Plan(rep *Report, opts PlanOptions) (*Plan, error) {
	return a.PlanContext(context.Background(), rep, opts)
}

// PlanContext is Plan with cancellation: ctx is polled inside the
// greedy search's pruning loop, so an abandoned request (say, a
// disconnected HTTP client) stops burning CPU promptly and returns
// ctx.Err().
func (a *Analyzer) PlanContext(ctx context.Context, rep *Report, opts PlanOptions) (*Plan, error) {
	if opts.Naive && opts.Cost != nil {
		return nil, fmt.Errorf("coverage: the naive baseline has no weighted variant")
	}

	if rep.auto && !opts.Naive {
		// The engine owns the MUP set for this (τ, level) pair and the
		// plan cache beside it.
		return a.eng.Plan(ctx, mup.Options{Threshold: rep.Threshold, MaxLevel: rep.findMaxLevel}, engine.PlanSpec{
			MaxLevel:      opts.MaxLevel,
			MinValueCount: opts.MinValueCount,
			Oracle:        opts.Oracle,
			Cost:          opts.Cost,
		})
	}

	cards := a.ds.Cards()
	obj := enhance.Objective{MaxLevel: opts.MaxLevel, MinValueCount: opts.MinValueCount}
	ts, err := enhance.NewTargetSet(rep.MUPs, cards, obj, opts.Oracle)
	if err != nil {
		return nil, err
	}
	targets := ts.Targets()
	sopts := enhance.SearchOptions{Ctx: ctx}
	switch {
	case opts.Naive:
		return enhance.NaiveGreedy(targets, cards, opts.Oracle)
	case opts.Cost != nil:
		return enhance.GreedyWeightedSearch(targets, cards, opts.Oracle, opts.Cost, sopts)
	default:
		return enhance.GreedySearch(targets, cards, opts.Oracle, sopts)
	}
}

// RenderPlan writes a plan as "text", "markdown" or "json". opts
// should be the PlanOptions the plan was computed with (used for the
// objective header).
func (a *Analyzer) RenderPlan(w io.Writer, format string, plan *Plan, opts PlanOptions) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	pr := &report.PlanReport{
		Schema:        a.ds.Schema(),
		Plan:          plan,
		Lambda:        opts.MaxLevel,
		MinValueCount: opts.MinValueCount,
	}
	return pr.Write(w, f)
}
