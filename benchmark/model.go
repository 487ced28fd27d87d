package main

import (
	"fmt"

	"coverage/internal/dataset"
	"coverage/internal/enhance"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// model is the benchmark's own account of one tenant: the multiset of
// rows it sent and the server acknowledged. Every correctness check
// compares a server answer to this multiset by the paper's
// definitions, not to another answer of the server.
type model struct {
	schema *dataset.Schema
	counts map[string]int64
	rows   int64
}

func newModel(schema *dataset.Schema) *model {
	return &model{schema: schema, counts: make(map[string]int64)}
}

func (m *model) add(rows [][]uint8) {
	for _, r := range rows {
		m.counts[string(r)]++
	}
	m.rows += int64(len(rows))
}

func (m *model) remove(rows [][]uint8) {
	for _, r := range rows {
		k := string(r)
		if m.counts[k]--; m.counts[k] == 0 {
			delete(m.counts, k)
		}
	}
	m.rows -= int64(len(rows))
}

// clone copies the model, for checks that run against a past state.
func (m *model) clone() *model {
	c := &model{schema: m.schema, counts: make(map[string]int64, len(m.counts)), rows: m.rows}
	for k, v := range m.counts {
		c.counts[k] = v
	}
	return c
}

// entry is one distinct combination and its multiplicity.
type entry struct {
	combo string
	n     int64
}

// entries lists the multiset once, so that a batch of patterns scans a
// slice instead of walking the map once per pattern.
func (m *model) entries() []entry {
	es := make([]entry, 0, len(m.counts))
	for k, c := range m.counts {
		es = append(es, entry{k, c})
	}
	return es
}

// scanCoverage is cov(P) by definition: the rows, here grouped by distinct
// combination, that agree with P on every deterministic attribute.
func scanCoverage(es []entry, p pattern.Pattern) int64 {
	var pos []int
	for j, v := range p {
		if v != pattern.Wildcard {
			pos = append(pos, j)
		}
	}
	var n int64
scan:
	for _, e := range es {
		for _, j := range pos {
			if e.combo[j] != p[j] {
				continue scan
			}
		}
		n += e.n
	}
	return n
}

// oracle builds a coverage index over the multiset, for the checks
// that need many probes (MUP verification).
func (m *model) oracle() *index.Index {
	return index.BuildFromCounts(m.schema, m.counts)
}

// checkCoverage compares a /coverage answer with the scan.
func (m *model) checkCoverage(patterns []string, got []int64) error {
	if len(got) != len(patterns) {
		return fmt.Errorf("coverage: %d answers for %d patterns", len(got), len(patterns))
	}
	es := m.entries()
	for i, raw := range patterns {
		p, err := pattern.Parse(raw, m.schema.Cards())
		if err != nil {
			return err
		}
		if want := scanCoverage(es, p); got[i] != want {
			return fmt.Errorf("coverage: cov(%s) = %d, the rows sent give %d", raw, got[i], want)
		}
	}
	return nil
}

// checkMUPs verifies a /mups answer: every reported pattern is
// uncovered with all parents covered (mup.VerifyResult), the row count
// and threshold are the ones asked for, and the count field matches.
func (m *model) checkMUPs(ix *index.Index, tau int64, a *mupsAnswer) ([]pattern.Pattern, error) {
	if a.Rows != m.rows {
		return nil, fmt.Errorf("mups: server reports %d rows, %d were acknowledged", a.Rows, m.rows)
	}
	if a.Threshold != tau || a.Total != len(a.MUPs) {
		return nil, fmt.Errorf("mups: threshold %d total %d for τ=%d and %d patterns", a.Threshold, a.Total, tau, len(a.MUPs))
	}
	ps := make([]pattern.Pattern, len(a.MUPs))
	for i, raw := range a.MUPs {
		p, err := pattern.Parse(raw, m.schema.Cards())
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	if err := mup.VerifyResult(ix, tau, &mup.Result{MUPs: ps}); err != nil {
		return nil, err
	}
	return ps, nil
}

// checkPlan verifies a /plan answer against the MUP set it was built
// from: every uncovered pattern of level ≤ maxLevel is matched by at
// least one suggested combination, and each suggestion's collect
// pattern generalises its combination.
func (m *model) checkPlan(mups []pattern.Pattern, maxLevel int, a *planAnswer) error {
	cards := m.schema.Cards()
	targets, err := enhance.UncoveredAtLevel(mups, cards, maxLevel)
	if err != nil {
		return err
	}
	if a.Targets != len(targets) {
		return fmt.Errorf("plan: %d targets reported, the MUP set expands to %d", a.Targets, len(targets))
	}
	combos := make([]pattern.Pattern, len(a.Suggestions))
	for i, s := range a.Suggestions {
		combo, err := pattern.Parse(s.Combo, cards)
		if err != nil {
			return err
		}
		collect, err := pattern.Parse(s.Collect, cards)
		if err != nil {
			return err
		}
		if !combo.IsFull() || !collect.Matches(combo) {
			return fmt.Errorf("plan: suggestion %s does not fall under its collect pattern %s", s.Combo, s.Collect)
		}
		combos[i] = combo
	}
	for _, t := range targets {
		hit := false
		for _, c := range combos {
			if t.Matches(c) {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("plan: target %s is hit by none of the %d suggestions", t, len(combos))
		}
	}
	return nil
}
