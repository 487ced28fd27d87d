package main

import (
	"fmt"
	"slices"
	"time"

	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/pattern"
)

// scenario is one corpus cell: a dataset and the thresholds it is
// audited under.
type scenario struct {
	id     string
	schema *dataset.Schema
	rows   [][]uint8
	taus   []int64
	// The plan is asked at planTau with λ = planLevel.
	planTau   int64
	planLevel int

	m  *model
	ix *index.Index
	// first holds the first pass's verified MUP sets, one per
	// threshold; later passes must repeat them exactly.
	first [][]string
}

// audit is the paper's own use: a dataset arrives, is audited once at
// a few thresholds, gets a remediation plan, and goes away. One client
// runs passes over the corpus; per scenario it creates a tenant,
// bulk-loads it with one NDJSON /append, runs each /mups cold (every
// threshold is new to the tenant), one /plan from scratch, and drops
// the tenant. No cache and no repair path does anything here.
type audit struct {
	t         *tally
	scenarios []*scenario

	passes  int
	mutated int64
	obs     map[string]float64
}

func newAudit(seed int64, scale float64, t *tally) workload {
	w := &audit{t: t}
	add := func(id string, n int, gen generator, planLevel int, taus ...int64) {
		if id != "compas" { // COMPAS is 6 889 rows in the paper; it stays whole
			n = scaled(n, scale)
			for i := range taus {
				taus[i] = scaledTau(taus[i], n, scale)
			}
		}
		c := gen(n, seed)
		s := &scenario{
			id: id, schema: c.schema, rows: c.rows,
			taus: taus, planTau: taus[len(taus)-1], planLevel: planLevel,
		}
		s.m = newModel(s.schema)
		s.m.add(s.rows)
		s.ix = s.m.oracle()
		w.scenarios = append(w.scenarios, s)
	}
	// Thresholds are 0.5% and 2% of the rows on the wide boolean cells,
	// where lower ones yield tens of thousands of MUPs and seconds per
	// search; the plan runs at the last threshold listed. λ is 3 on the
	// boolean cells and 2 where cardinalities are larger, whose level-3
	// target sets take the greedy search seconds.
	add("airbnb13", auditRows, genAirBnB(13), 3, 100, 400)
	add("airbnb15", auditRows/2, genAirBnB(15), 3, 800)
	add("bluenile7", auditRows, genBlueNile, 2, 10, 40)
	add("compas", 6889, genCOMPAS, 3, 10)
	add("zipf10", auditRows, genZipf10, 2, 400)
	return w
}

// auditRows is the size of the large corpus cells. It is a fifth of
// the 100 000 rows the other workloads preload, with thresholds scaled
// alike, so that one pass over the nine audits takes about a second
// and a run holds enough passes for a median.
const auditRows = 20000

func (w *audit) clients() int    { return 1 }
func (w *audit) primary() string { return "pass" }

// setup runs one whole pass: it checks every answer in full — later
// passes only compare with it — and leaves the server with a grown
// heap and warm code paths, as a long-running one has.
func (w *audit) setup(x executor, rec *recorder) error {
	w.obs = map[string]float64{}
	w.passes, w.mutated = 0, 0
	for _, s := range w.scenarios {
		s.first = nil
	}
	if _, err := w.pass(x, newRecorder(), true); err != nil {
		return err
	}
	w.obs = map[string]float64{}
	w.passes, w.mutated = 0, 0
	return nil
}

// pass audits every scenario once and returns the time the caller
// waited. A verifying pass checks each answer by the definitions; any
// other pass requires the answers of the verified one.
func (w *audit) pass(x executor, rec *recorder, verify bool) (float64, error) {
	var total float64
	took := func(kind string, d time.Duration) {
		rec.add(kind, d)
		total += ms(d)
	}
	for _, s := range w.scenarios {
		d, err := x.create(s.id, s.schema)
		if err != nil {
			return 0, err
		}
		took("create", d)
		if d, err = x.bulk(s.id, s.rows); err != nil {
			return 0, err
		}
		rec.addBulk(d, len(s.rows))
		total += ms(d)
		w.mutated += int64(len(s.rows))
		var planBasis []pattern.Pattern
		for i, tau := range s.taus {
			a, d, err := x.mups(s.id, tau)
			if err != nil {
				return 0, err
			}
			took("mups_cold", d)
			w.obs["mup.probes"] += float64(a.Probes)
			w.obs["mup.mups"] += float64(a.Total)
			w.obs["covserve.mups.resp_bytes"] = max(w.obs["covserve.mups.resp_bytes"], float64(a.Bytes))
			if verify {
				ps, err := s.m.checkMUPs(s.ix, tau, a)
				w.t.check(err)
				s.first = append(s.first, a.MUPs)
				if tau == s.planTau {
					planBasis = ps
				}
			} else if !slices.Equal(a.MUPs, s.first[i]) {
				return 0, fmt.Errorf("%s τ=%d: this pass's MUPs differ from the verified first pass", s.id, tau)
			}
		}
		p, d, err := x.plan(s.id, s.planTau, s.planLevel)
		if err != nil {
			return 0, err
		}
		took("plan_cold", d)
		w.obs["enhance.targets"] += float64(p.Targets)
		w.obs["enhance.tuples"] += float64(p.Tuples)
		if verify && planBasis != nil {
			w.t.check(s.m.checkPlan(planBasis, s.planLevel, p))
		}
		c, err := x.counters(s.id)
		if err != nil {
			return 0, err
		}
		counterDelta(w.obs, &tenantCounters{}, c)
		w.obs["persist.wal_bytes"] += float64(c.WALBytes)
		w.obs["persist.wal_records"] += float64(c.WALRecords)
		w.obs["engine.distinct_combinations"] = max(w.obs["engine.distinct_combinations"], float64(c.Distinct))
		w.obs["engine.store_bytes"] = max(w.obs["engine.store_bytes"], float64(c.StoreBytes))
		if d, err = x.drop(s.id); err != nil {
			return 0, err
		}
		took("drop", d)
	}
	w.passes++
	return total, nil
}

func (w *audit) drive(x executor, _ int, lim limiter, rec *recorder) error {
	for n := 0; !lim.done(n); n++ {
		total, err := w.pass(x, rec, false)
		if err != nil {
			return err
		}
		rec.addMs("pass", total)
	}
	return nil
}

// finish loads every scenario once more and leaves it in place, so the
// crash has freshly bulk-loaded tenants to recover.
func (w *audit) finish(x executor, rec *recorder) error {
	for _, s := range w.scenarios {
		if _, err := x.create(s.id, s.schema); err != nil {
			return err
		}
		if _, err := x.bulk(s.id, s.rows); err != nil {
			return err
		}
	}
	return nil
}

func (w *audit) tenants() map[string]*model {
	out := map[string]*model{}
	for _, s := range w.scenarios {
		out[s.id] = s.m
	}
	return out
}

// mutatedRows is per pass, like the counters observed reports.
func (w *audit) mutatedRows() int64 { return w.mutated / int64(max(w.passes, 1)) }

// observed reports the counters per pass: they were summed over however
// many passes the clock allowed.
func (w *audit) observed() map[string]float64 {
	out := make(map[string]float64, len(w.obs))
	for name, v := range w.obs {
		switch name {
		case "engine.distinct_combinations", "engine.store_bytes", "covserve.mups.resp_bytes":
			out[name] = v // maxima, not sums
		default:
			out[name] = v / float64(max(w.passes, 1))
		}
	}
	return out
}

// verify audits the recovered tenants once more at each one's plan
// threshold; the answers must be the verified ones.
func (w *audit) verify(x executor) error {
	for _, s := range w.scenarios {
		a, _, err := x.mups(s.id, s.planTau)
		if err != nil {
			return fmt.Errorf("auditing the recovered server: %w", err)
		}
		_, err = s.m.checkMUPs(s.ix, s.planTau, a)
		w.t.check(err)
	}
	return nil
}
