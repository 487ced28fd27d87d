package mup

import (
	"sort"

	"coverage/internal/index"
	"coverage/internal/pattern"
)

// Apriori implements the frequent-itemset adaptation the paper
// evaluates as a baseline in §V-C: every ⟨attribute, value⟩ pair is an
// item, frequent itemsets (support ≥ τ) are mined level-wise, and an
// infrequent candidate all of whose (k-1)-subsets are frequent is a
// MUP whenever it denotes a valid pattern (at most one value per
// attribute).
//
// As the paper stresses, the itemset lattice is far larger than the
// pattern graph (2^Σci vs Π(ci+1)) and joins produce invalid itemsets
// holding two values of one attribute; those inefficiencies are
// preserved here deliberately, since Fig 12 measures exactly them.
func Apriori(ix index.Oracle, opts Options) (*Result, error) {
	cards := ix.Cards()
	d := len(cards)
	res := &Result{Stats: Stats{Algorithm: "apriori"}, Cov: []int64{}}
	pr := ix.NewCoverageProber()
	bound := opts.levelBound(d)

	if opts.Threshold <= 0 {
		return res, nil
	}
	if ix.Total() < opts.Threshold {
		// The empty itemset (the root pattern) is itself infrequent:
		// it is the single MUP.
		res.MUPs = []pattern.Pattern{pattern.All(d)}
		res.Cov = []int64{ix.Total()}
		res.Stats.CoverageProbes = pr.Probes()
		return res, nil
	}

	// Item identifiers: item = offset[attr] + value.
	offset := make([]int, d)
	nItems := 0
	for i, c := range cards {
		offset[i] = nItems
		nItems += c
	}
	attrOf := make([]int, nItems)
	valOf := make([]uint8, nItems)
	for i, c := range cards {
		for v := 0; v < c; v++ {
			attrOf[offset[i]+v] = i
			valOf[offset[i]+v] = uint8(v)
		}
	}

	// toPattern converts an itemset to its pattern, reporting whether
	// the itemset is valid (no attribute repeated).
	toPattern := func(set []int) (pattern.Pattern, bool) {
		p := pattern.All(d)
		for _, it := range set {
			a := attrOf[it]
			if p[a] != pattern.Wildcard {
				return nil, false
			}
			p[a] = valOf[it]
		}
		return p, true
	}

	// Level 1: every item is a candidate; the empty-set parent (the
	// root) is frequent, so infrequent items are MUPs. Support is only
	// compared with τ, so probes stop counting there; an infrequent
	// itemset's support, kept as its MUP's coverage, is exact.
	var frequent [][]int
	for it := 0; it < nItems; it++ {
		res.Stats.NodesVisited++
		p, _ := toPattern([]int{it})
		if c := pr.CoverageAtLeast(p, opts.Threshold); c >= opts.Threshold {
			frequent = append(frequent, []int{it})
		} else {
			res.MUPs = append(res.MUPs, p)
			res.Cov = append(res.Cov, c)
		}
	}

	for k := 2; k <= bound && len(frequent) > 0; k++ {
		freqKeys := make(map[string]bool, len(frequent))
		for _, set := range frequent {
			freqKeys[itemsetKey(set)] = true
		}
		candidates := joinCandidates(frequent, freqKeys)
		var next [][]int
		for _, cand := range candidates {
			res.Stats.NodesVisited++
			p, valid := toPattern(cand)
			var supp int64
			if valid {
				supp = pr.CoverageAtLeast(p, opts.Threshold)
			} // invalid itemsets have support 0 by construction
			if supp >= opts.Threshold {
				next = append(next, cand)
			} else if valid {
				// Infrequent with all (k-1)-subsets frequent and a
				// valid pattern: all pattern parents are covered, so
				// this is a MUP.
				res.MUPs = append(res.MUPs, p)
				res.Cov = append(res.Cov, supp)
			}
		}
		frequent = next
	}

	res.Stats.CoverageProbes = pr.Probes()
	sortResult(res)
	return res, nil
}

func itemsetKey(set []int) string {
	b := make([]byte, 2*len(set))
	for i, it := range set {
		b[2*i] = byte(it >> 8)
		b[2*i+1] = byte(it)
	}
	return string(b)
}

// joinCandidates produces the classic apriori candidate set: unions of
// two frequent (k-1)-itemsets sharing their first k-2 items, pruned to
// candidates all of whose (k-1)-subsets are frequent.
func joinCandidates(frequent [][]int, freqKeys map[string]bool) [][]int {
	sort.Slice(frequent, func(i, j int) bool {
		a, b := frequent[i], frequent[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	var out [][]int
	sub := make([]int, 0, 16)
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			if !samePrefix(a, b) {
				break // sorted order: later j's share even less
			}
			cand := make([]int, len(a)+1)
			copy(cand, a)
			cand[len(a)] = b[len(b)-1]
			// Subset pruning: every (k-1)-subset must be frequent.
			ok := true
			for skip := 0; skip < len(cand); skip++ {
				sub = sub[:0]
				for x, it := range cand {
					if x != skip {
						sub = append(sub, it)
					}
				}
				if !freqKeys[itemsetKey(sub)] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, cand)
			}
		}
	}
	return out
}

// samePrefix reports whether the two equal-length itemsets agree on
// all but the last item.
func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
