package enhance

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"coverage/internal/bitvec"
	"coverage/internal/pattern"
)

// SearchOptions tunes how the greedy hitting-set planner runs without
// changing what it returns: for a fixed target set, oracle and cost
// model, the selected plan is identical at every worker count and
// matches the historical sequential Greedy / GreedyWeighted output
// combination for combination.
type SearchOptions struct {
	// Ctx, when non-nil, is polled inside the tree search's pruning
	// loop; once canceled the search aborts promptly and the planner
	// returns ctx.Err() instead of burning CPU on an answer nobody is
	// waiting for.
	Ctx context.Context
	// Workers fans each greedy iteration's top-level attribute
	// branches across this many goroutines sharing an atomic
	// best-bound (the mup.ParallelOptions idiom). 0 or 1 runs
	// sequentially.
	Workers int
}

// maxSearchWorkers caps the branch fan-out: each worker owns a full
// set of per-level bit vectors, and the client-facing callers (the
// covserve /plan endpoint) pass the count through, so an absurd
// request must degrade to a bounded allocation, not an OOM.
const maxSearchWorkers = 64

func (o SearchOptions) workers() int {
	if o.Workers > maxSearchWorkers {
		return maxSearchWorkers
	}
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// GreedySearch is Greedy with search controls: cancellation and
// parallel branch fan-out. The plan is identical to Greedy's.
func GreedySearch(targets []pattern.Pattern, cards []int, oracle *Oracle, opts SearchOptions) (*Plan, error) {
	return runGreedy(targets, cards, oracle, nil, opts, "greedy")
}

// GreedyWeightedSearch is GreedyWeighted with the same search
// controls. The plan is identical to GreedyWeighted's.
func GreedyWeightedSearch(targets []pattern.Pattern, cards []int, oracle *Oracle, cost *CostModel, opts SearchOptions) (*Plan, error) {
	if cost == nil {
		return nil, fmt.Errorf("enhance: GreedyWeighted requires a cost model; use Greedy for the unweighted objective")
	}
	if len(cost.costs) != len(cards) {
		return nil, fmt.Errorf("enhance: cost model dimension %d does not match schema dimension %d", len(cost.costs), len(cards))
	}
	return runGreedy(targets, cards, oracle, cost, opts, "greedy-weighted")
}

// lowerBound converts a known-achievable score — the best leaf another
// branch has published — into the strict pruning floor that still
// admits every leaf matching it, clamped at zero so that the
// historical "must hit something" behavior stays intact. Unweighted
// scores are integer hit counts, so the floor is exactly score−1.
// Weighted scores are hits/cost ratios whose internal-node upper
// bounds sum the same costs in a different association order (sufMin
// accumulates right to left, the descent left to right), so a bound
// can compute a few ulps below the leaf score it dominates
// mathematically; the floor therefore backs off by a relative margin
// far above that accumulation error — everything materially below the
// score is still pruned, and a subtree holding a score-matching leaf
// never is.
func lowerBound(score float64, weighted bool) float64 {
	if score <= 0 {
		return 0
	}
	if weighted {
		return score * (1 - 1e-9)
	}
	f := score - 1
	if f < 0 {
		f = 0
	}
	return f
}

// sharedBest is the atomic best-score bound the parallel branch
// workers publish their finds through. Scores are non-negative, so the
// zero value is a valid floor.
type sharedBest struct{ bits atomic.Uint64 }

func (b *sharedBest) load() float64 { return math.Float64frombits(b.bits.Load()) }

func (b *sharedBest) raise(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// childScore is one admissible child of a search-tree node: its value,
// the accumulated acquisition cost through it (weighted searches only)
// and its score upper bound (hit count unweighted, hits per unit
// completed cost weighted — both dominate every leaf in the child's
// subtree).
type childScore struct {
	value uint8
	cost  float64
	score float64
}

// insertChild adds ch to kids in visit order: score descending, ties
// in insertion order. Children are scored in ascending value order, so
// ties visit the smallest value first. A node has at most cᵢ children,
// so an insertion sort beats a general sort and allocates nothing.
func insertChild(kids []childScore, ch childScore) []childScore {
	kids = append(kids, ch)
	j := len(kids) - 1
	for ; j > 0 && kids[j-1].score < ch.score; j-- {
		kids[j] = kids[j-1]
	}
	kids[j] = ch
	return kids
}

// treeSearcher runs one branch-and-bound selection (Algorithm 4/5)
// over the inverted target indices: a depth-first search down the
// attribute tree, children visited in descending score order, pruning
// branches whose upper bound cannot strictly beat the best score seen
// so far (locally, or globally through the shared bound). The buffers
// are reusable across iterations and branches; each parallel worker
// owns one searcher.
type treeSearcher struct {
	cards  []int
	oracle *Oracle
	cost   *CostModel // nil = unweighted
	inv    [][]*bitvec.Vector
	cont   *bitvec.Vector
	levels []*bitvec.Vector
	kids   [][]childScore // per depth, the children of the node being searched

	combo     []uint8
	best      []uint8
	bestScore float64
	found     bool
	nodes     int64

	shared  *sharedBest // non-nil when branches run in parallel
	ctx     context.Context
	ctxTick int
	err     error
}

func newTreeSearcher(g *greedyRun, ctx context.Context, shared *sharedBest) *treeSearcher {
	d, m := len(g.cards), len(g.targets)
	s := &treeSearcher{
		cards:  g.cards,
		oracle: g.oracle,
		cost:   g.cost,
		inv:    g.inv,
		cont:   g.cont,
		levels: make([]*bitvec.Vector, d+1),
		kids:   make([][]childScore, d),
		combo:  make([]uint8, d),
		best:   make([]uint8, d),
		ctx:    ctx,
		shared: shared,
	}
	for i := range s.levels {
		s.levels[i] = bitvec.New(m)
	}
	for i, c := range g.cards {
		s.kids[i] = make([]childScore, 0, c)
	}
	return s
}

// resize fits the level vectors to an index over n targets; the root
// level holds all of them.
func (s *treeSearcher) resize(n int) {
	for _, l := range s.levels {
		l.Reset(n)
	}
	s.levels[0].SetAll()
}

// reset prepares the searcher for a fresh selection (or a fresh branch
// of one): the first recorded leaf must hit something.
func (s *treeSearcher) reset() {
	s.bestScore = 0
	s.found = false
}

// floor returns the score a leaf must strictly exceed to become the
// incumbent: the local best, raised by the shared bound when other
// branches have already found better. Monotone within a selection, so
// sorted-children loops may break on the first failing child.
func (s *treeSearcher) floor() float64 {
	f := s.bestScore
	if s.shared != nil {
		if g := lowerBound(s.shared.load(), s.cost != nil); g > f {
			f = g
		}
	}
	return f
}

// canceled polls the context every 1024 visited nodes.
func (s *treeSearcher) canceled() bool {
	if s.err != nil {
		return true
	}
	if s.ctx == nil {
		return false
	}
	if s.ctxTick++; s.ctxTick&1023 != 0 {
		return false
	}
	select {
	case <-s.ctx.Done():
		s.err = s.ctx.Err()
		return true
	default:
		return false
	}
}

// score computes one child's (accumulated cost, score) pair.
func (s *treeSearcher) score(i, v, cnt int, costSoFar float64) (float64, float64) {
	if s.cost == nil {
		return costSoFar, float64(cnt)
	}
	c := costSoFar + s.cost.costs[i][v]
	return c, s.bound(i, cnt, c)
}

// bound scores n targets below a depth-i child whose accumulated cost
// is cost: n itself unweighted, n per unit of the cheapest completion
// weighted.
func (s *treeSearcher) bound(i, n int, cost float64) float64 {
	if s.cost == nil {
		return float64(n)
	}
	return float64(n) / (cost + s.cost.sufMin[i+1])
}

// search explores attribute i given levels[i] (the targets matching
// the values assigned so far) and the acquisition cost accumulated
// over attributes < i.
func (s *treeSearcher) search(i int, costSoFar float64) {
	cur := s.levels[i]
	leaf := i == len(s.cards)-1
	kids := s.kids[i][:0]
	for v := 0; v < s.cards[i]; v++ {
		s.combo[i] = uint8(v)
		if s.oracle != nil && !s.oracle.AllowPrefix(s.combo, i+1) {
			continue
		}
		s.nodes++
		if s.canceled() {
			return
		}
		cnt := cur.CountAnd(s.inv[i][v])
		if cnt == 0 {
			continue
		}
		cost, sc := s.score(i, v, cnt, costSoFar)
		if leaf {
			// Leaf children: the score is exact. Values are visited in
			// ascending order with strict improvement required, so among
			// score-ties the smallest value wins — the historical
			// sequential tie-break.
			if sc > s.floor() {
				s.bestScore = sc
				copy(s.best, s.combo)
				s.found = true
				if s.shared != nil {
					s.shared.raise(sc)
				}
			}
			continue
		}
		kids = insertChild(kids, childScore{uint8(v), cost, sc})
	}
	for _, ch := range kids {
		if s.err != nil {
			return
		}
		if ch.score <= s.floor() {
			break // scores only shrink deeper; no branch here can win
		}
		s.descend(i, ch)
	}
}

// descend searches the subtree of child ch of a depth-i node unless
// its group bound rules it out. Two distinct targets with the same
// wildcard positions differ at a fixed position, so no combination
// matches both: the subtree hits at most one target per such group
// left in levels[i+1] (an exact duplicate counts as its own group).
// The index keeps each group's matches contiguous, so that count is
// one CountRuns. Scored like the child, it prunes every subtree whose
// leaves could not beat the incumbent, and only those; the visit
// order is unchanged, so the selection is too.
func (s *treeSearcher) descend(i int, ch childScore) {
	s.combo[i] = ch.value
	next := s.levels[i+1]
	s.levels[i].AndInto(s.inv[i][ch.value], next)
	if s.bound(i, next.CountRuns(s.cont), ch.cost) <= s.floor() {
		return
	}
	s.search(i+1, ch.cost)
}

// selection is the outcome of one greedy iteration's tree search.
type selection struct {
	combo []uint8
	found bool
}

// greedyRun drives the iterated selections of one planning call.
type greedyRun struct {
	targets []pattern.Pattern
	cards   []int
	oracle  *Oracle
	cost    *CostModel

	// live holds the indices of the targets not hit yet, sorted by
	// (wildcard positions, pattern). Bit k of every vector below stands
	// for targets[live[k]]; compact rebuilds them after each selection.
	live []int
	inv  [][]*bitvec.Vector // Fig 9's index: bit k of inv[i][v] is set iff live[k] has a wildcard or v at i
	cont *bitvec.Vector     // bit k: live[k] has live[k-1]'s wildcard positions and is not its duplicate
	tmp  *bitvec.Vector     // scratch for the hits of a selection

	searchers []*treeSearcher
	nodes     int64
}

// runGreedy is the shared driver behind Greedy, GreedyWeighted and
// their Search variants: validate, sort the targets into groups, then
// repeatedly index the targets not hit yet and select the best-scoring
// valid combination until every target is hit.
func runGreedy(targets []pattern.Pattern, cards []int, oracle *Oracle, cost *CostModel, opts SearchOptions, algo string) (*Plan, error) {
	if err := checkTargets(targets, cards); err != nil {
		return nil, err
	}
	plan := &Plan{Targets: targets, Stats: PlanStats{Algorithm: algo}}
	if len(targets) == 0 {
		return plan, nil
	}
	m := len(targets)
	g := &greedyRun{
		targets: targets,
		cards:   cards,
		oracle:  oracle,
		cost:    cost,
		live:    make([]int, m),
		inv:     make([][]*bitvec.Vector, len(cards)),
		cont:    bitvec.New(m),
		tmp:     bitvec.New(m),
	}
	for j := range g.live {
		g.live[j] = j
	}
	slices.SortStableFunc(g.live, func(a, b int) int {
		if c := compareWildcards(targets[a], targets[b]); c != 0 {
			return c
		}
		return bytes.Compare(targets[a], targets[b])
	})
	for i, c := range cards {
		g.inv[i] = make([]*bitvec.Vector, c)
		for v := range g.inv[i] {
			g.inv[i][v] = bitvec.New(m)
		}
	}
	workers := opts.workers()
	if len(cards) == 1 {
		workers = 1 // the root is the leaf level; nothing to fan out
	}
	if workers > cards[0] {
		workers = cards[0] // one branch per top-level value at most
	}
	var shared *sharedBest
	if workers > 1 {
		shared = &sharedBest{}
	}
	g.searchers = make([]*treeSearcher, workers)
	for w := range g.searchers {
		g.searchers[w] = newTreeSearcher(g, opts.Ctx, shared)
	}

	for len(g.live) > 0 {
		if opts.Ctx != nil {
			// One deterministic poll per greedy iteration; the
			// searchers also poll inside long tree searches.
			select {
			case <-opts.Ctx.Done():
				return nil, opts.Ctx.Err()
			default:
			}
		}
		g.compact()
		sel, err := g.selectBest(shared)
		if err != nil {
			return nil, err
		}
		if !sel.found {
			return nil, fmt.Errorf("enhance: no valid value combination hits pattern %v; the validation oracle rules out all of its matches", targets[slices.Min(g.live)])
		}
		combo := append([]uint8(nil), sel.combo...)
		hits := g.take(combo)
		sug := Suggestion{
			Combo:   combo,
			Collect: generalize(combo, targets, hits),
			Hits:    hits,
		}
		if cost != nil {
			sug.Cost = cost.ComboCost(combo)
		}
		plan.Suggestions = append(plan.Suggestions, sug)
		plan.Stats.Iterations++
	}
	plan.Stats.NodesExplored = g.nodes
	if err := verifyPlanCoversAll(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// compareWildcards orders patterns by their wildcard positions alone;
// 0 means they belong to the same group.
func compareWildcards(p, q pattern.Pattern) int {
	for i := range p {
		if pw, qw := p[i] == pattern.Wildcard, q[i] == pattern.Wildcard; pw != qw {
			if pw {
				return 1
			}
			return -1
		}
	}
	return 0
}

// compact rebuilds every vector over the live targets, reusing their
// storage. Every bit then stands for a live target, and within one
// group the targets a prefix matches share its values, so they sit in
// one contiguous run of the (wildcards, pattern) order.
func (g *greedyRun) compact() {
	n := len(g.live)
	for _, vs := range g.inv {
		for _, vec := range vs {
			vec.Reset(n)
		}
	}
	g.cont.Reset(n)
	g.tmp.Reset(n)
	for k, j := range g.live {
		p := g.targets[j]
		for i, v := range p {
			if v == pattern.Wildcard {
				for _, vec := range g.inv[i] {
					vec.Set(k)
				}
			} else {
				g.inv[i][v].Set(k)
			}
		}
		if k > 0 {
			if q := g.targets[g.live[k-1]]; compareWildcards(p, q) == 0 && !p.Equal(q) {
				g.cont.Set(k)
			}
		}
	}
	for _, s := range g.searchers {
		s.resize(n)
	}
}

// take removes the live targets combo matches and returns their
// indices in ascending order.
func (g *greedyRun) take(combo []uint8) []int {
	hit := g.tmp
	hit.CopyFrom(g.inv[0][combo[0]])
	for i, v := range combo[1:] {
		hit.And(g.inv[i+1][v])
	}
	hits := make([]int, 0, hit.Count())
	kept := g.live[:0]
	for k, j := range g.live {
		if hit.Get(k) {
			hits = append(hits, j)
		} else {
			kept = append(kept, j)
		}
	}
	g.live = kept
	slices.Sort(hits)
	return hits
}

// selectBest runs one greedy iteration: the branch-and-bound search
// for the valid combination maximizing the objective over the live
// targets.
func (g *greedyRun) selectBest(shared *sharedBest) (selection, error) {
	if len(g.searchers) == 1 {
		s := g.searchers[0]
		s.reset()
		s.search(0, 0)
		g.nodes += s.nodes
		s.nodes = 0
		if s.err != nil {
			return selection{}, s.err
		}
		return selection{combo: s.best, found: s.found}, nil
	}
	return g.selectBestParallel(shared)
}

// branchResult is one top-level branch's best find.
type branchResult struct {
	combo []uint8
	score float64
	found bool
}

// selectBestParallel fans the admissible top-level attribute values
// out across the worker searchers. Workers claim branches from an
// atomic counter and publish leaf scores through the shared bound, so
// slow branches are pruned by fast ones regardless of scheduling; the
// reduction scans branches in the canonical (score desc, value asc)
// order and requires strict improvement, which reproduces the
// sequential search's selection exactly (the branch floors never prune
// a leaf matching the global maximum, and ties resolve to the earliest
// canonical branch just as the sequential scan would).
func (g *greedyRun) selectBestParallel(shared *sharedBest) (selection, error) {
	shared.bits.Store(0) // a fresh bound for this iteration

	// Enumerate the top-level branches exactly as the sequential
	// search's root node would.
	s0 := g.searchers[0]
	combo := s0.combo
	branches := make([]childScore, 0, g.cards[0])
	for v := 0; v < g.cards[0]; v++ {
		combo[0] = uint8(v)
		if g.oracle != nil && !g.oracle.AllowPrefix(combo, 1) {
			continue
		}
		g.nodes++
		cnt := g.inv[0][v].Count()
		if cnt == 0 {
			continue
		}
		cost, sc := s0.score(0, v, cnt, 0)
		branches = insertChild(branches, childScore{uint8(v), cost, sc})
	}

	results := make([]branchResult, len(branches))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := len(g.searchers)
	if workers > len(branches) {
		workers = len(branches)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *treeSearcher) {
			defer wg.Done()
			for {
				bi := int(next.Add(1)) - 1
				if bi >= len(branches) || s.err != nil {
					return
				}
				br := branches[bi]
				if br.score <= lowerBound(shared.load(), g.cost != nil) {
					continue // no leaf below can beat the published best
				}
				s.reset()
				s.descend(0, br)
				if s.found {
					results[bi] = branchResult{
						combo: append([]uint8(nil), s.best...),
						score: s.bestScore,
						found: true,
					}
				}
			}
		}(g.searchers[w])
	}
	wg.Wait()
	for _, s := range g.searchers {
		g.nodes += s.nodes
		s.nodes = 0
		if s.err != nil {
			return selection{}, s.err
		}
	}
	var sel selection
	var selScore float64
	for _, r := range results {
		if r.found && (!sel.found || r.score > selScore) {
			sel = selection{combo: r.combo, found: true}
			selScore = r.score
		}
	}
	return sel, nil
}
