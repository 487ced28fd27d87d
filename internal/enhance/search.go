package enhance

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"coverage/internal/bitvec"
	"coverage/internal/pattern"
)

// SearchOptions controls a greedy planning call without changing what
// it returns: for a fixed target set, oracle and cost model, the plan
// is Greedy's or GreedyWeighted's combination for combination.
type SearchOptions struct {
	// Ctx, when non-nil, is polled inside the tree search's pruning
	// loop; once canceled the search aborts promptly and the planner
	// returns ctx.Err() instead of burning CPU on an answer nobody is
	// waiting for.
	Ctx context.Context
	// Workers is deprecated and ignored: the search runs on the
	// calling goroutine. The field stays only because
	// benchmark/inproc.go still sets it, and goes with that use. It
	// has no "Deprecated:" paragraph because staticcheck would then
	// fail on that use.
	Workers int
}

// GreedySearch is Greedy with cancellation. The plan is identical to
// Greedy's.
func GreedySearch(targets []pattern.Pattern, cards []int, oracle *Oracle, opts SearchOptions) (*Plan, error) {
	return runGreedy(opts.Ctx, targets, cards, oracle, nil, "greedy")
}

// GreedyWeightedSearch is GreedyWeighted with cancellation. The plan
// is identical to GreedyWeighted's.
func GreedyWeightedSearch(targets []pattern.Pattern, cards []int, oracle *Oracle, cost *CostModel, opts SearchOptions) (*Plan, error) {
	if cost == nil {
		return nil, fmt.Errorf("enhance: GreedyWeighted requires a cost model; use Greedy for the unweighted objective")
	}
	if len(cost.costs) != len(cards) {
		return nil, fmt.Errorf("enhance: cost model dimension %d does not match schema dimension %d", len(cost.costs), len(cards))
	}
	return runGreedy(opts.Ctx, targets, cards, oracle, cost, "greedy-weighted")
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

// greedyRun drives the iterated selections of one planning call. Each
// selection is a branch-and-bound search (Algorithm 4/5) over the
// inverted target indices: a depth-first search down the attribute
// tree, children visited in descending score order, pruning branches
// whose upper bound cannot strictly beat the best score seen so far.
// Every buffer is reused across selections.
type greedyRun struct {
	targets []pattern.Pattern
	cards   []int
	oracle  *Oracle
	cost    *CostModel // nil = unweighted

	// live holds the indices of the targets not hit yet, sorted by
	// (wildcard positions, pattern). Bit k of every vector below stands
	// for targets[live[k]]; compact rebuilds them after each selection.
	live   []int
	inv    [][]*bitvec.Vector // Fig 9's index: bit k of inv[i][v] is set iff live[k] has a wildcard or v at i
	cont   *bitvec.Vector     // bit k: live[k] has live[k-1]'s wildcard positions and is not its duplicate
	tmp    *bitvec.Vector     // scratch for the hits of a selection
	levels []*bitvec.Vector   // levels[i]: the live targets matching combo[:i]
	kids   [][]childScore     // per depth, the children of the node being searched

	combo     []uint8
	best      []uint8
	bestScore float64
	found     bool
	nodes     int64

	ctx     context.Context
	ctxTick int
	err     error
}

// runGreedy is the shared driver behind Greedy, GreedyWeighted and
// their Search variants: validate, sort the targets into groups, then
// repeatedly index the targets not hit yet and select the best-scoring
// valid combination until every target is hit.
func runGreedy(ctx context.Context, targets []pattern.Pattern, cards []int, oracle *Oracle, cost *CostModel, algo string) (*Plan, error) {
	if err := checkTargets(targets, cards); err != nil {
		return nil, err
	}
	plan := &Plan{Targets: targets, Stats: PlanStats{Algorithm: algo}}
	if len(targets) == 0 {
		return plan, nil
	}
	m, d := len(targets), len(cards)
	g := &greedyRun{
		targets: targets,
		cards:   cards,
		oracle:  oracle,
		cost:    cost,
		live:    make([]int, m),
		inv:     make([][]*bitvec.Vector, d),
		cont:    bitvec.New(m),
		tmp:     bitvec.New(m),
		levels:  make([]*bitvec.Vector, d+1),
		kids:    make([][]childScore, d),
		combo:   make([]uint8, d),
		best:    make([]uint8, d),
		ctx:     ctx,
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
		g.kids[i] = make([]childScore, 0, c)
	}
	for i := range g.levels {
		g.levels[i] = bitvec.New(m)
	}

	for len(g.live) > 0 {
		if ctx != nil {
			// One deterministic poll per greedy iteration; the search
			// also polls inside long tree searches.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		g.compact()
		g.bestScore, g.found = 0, false // the first recorded leaf must hit something
		g.search(0, 0)
		if g.err != nil {
			return nil, g.err
		}
		if !g.found {
			return nil, fmt.Errorf("enhance: no valid value combination hits pattern %v; the validation oracle rules out all of its matches", targets[slices.Min(g.live)])
		}
		combo := slices.Clone(g.best)
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
// one contiguous run of the (wildcards, pattern) order. The root level
// holds all of them.
func (g *greedyRun) compact() {
	n := len(g.live)
	for _, vs := range g.inv {
		for _, vec := range vs {
			vec.Reset(n)
		}
	}
	g.cont.Reset(n)
	g.tmp.Reset(n)
	for _, l := range g.levels {
		l.Reset(n)
	}
	g.levels[0].SetAll()
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

// canceled polls the context every 1024 visited nodes.
func (g *greedyRun) canceled() bool {
	if g.err != nil {
		return true
	}
	if g.ctx == nil {
		return false
	}
	if g.ctxTick++; g.ctxTick&1023 != 0 {
		return false
	}
	select {
	case <-g.ctx.Done():
		g.err = g.ctx.Err()
		return true
	default:
		return false
	}
}

// score computes one child's (accumulated cost, score) pair.
func (g *greedyRun) score(i, v, cnt int, costSoFar float64) (float64, float64) {
	if g.cost == nil {
		return costSoFar, float64(cnt)
	}
	c := costSoFar + g.cost.costs[i][v]
	return c, g.bound(i, cnt, c)
}

// bound scores n targets below a depth-i child whose accumulated cost
// is cost: n itself unweighted, n per unit of the cheapest completion
// weighted.
func (g *greedyRun) bound(i, n int, cost float64) float64 {
	if g.cost == nil {
		return float64(n)
	}
	return float64(n) / (cost + g.cost.sufMin[i+1])
}

// search explores attribute i given levels[i] (the targets matching
// the values assigned so far) and the acquisition cost accumulated
// over attributes < i. A leaf becomes the incumbent only by strictly
// beating bestScore, so the floor is monotone within a selection and
// the sorted-children loop may break on the first failing child.
func (g *greedyRun) search(i int, costSoFar float64) {
	cur := g.levels[i]
	leaf := i == len(g.cards)-1
	kids := g.kids[i][:0]
	for v := 0; v < g.cards[i]; v++ {
		g.combo[i] = uint8(v)
		if g.oracle != nil && !g.oracle.AllowPrefix(g.combo, i+1) {
			continue
		}
		g.nodes++
		if g.canceled() {
			return
		}
		cnt := cur.CountAnd(g.inv[i][v])
		if cnt == 0 {
			continue
		}
		cost, sc := g.score(i, v, cnt, costSoFar)
		if leaf {
			// Leaf children: the score is exact. Values are visited in
			// ascending order with strict improvement required, so among
			// score-ties the smallest value wins — the historical
			// tie-break.
			if sc > g.bestScore {
				g.bestScore = sc
				copy(g.best, g.combo)
				g.found = true
			}
			continue
		}
		kids = insertChild(kids, childScore{uint8(v), cost, sc})
	}
	for _, ch := range kids {
		if g.err != nil {
			return
		}
		if ch.score <= g.bestScore {
			break // scores only shrink deeper; no branch here can win
		}
		g.descend(i, ch)
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
func (g *greedyRun) descend(i int, ch childScore) {
	g.combo[i] = ch.value
	next := g.levels[i+1]
	g.levels[i].AndInto(g.inv[i][ch.value], next)
	if g.bound(i, next.CountRuns(g.cont), ch.cost) <= g.bestScore {
		return
	}
	g.search(i+1, ch.cost)
}
