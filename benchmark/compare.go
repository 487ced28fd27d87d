package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRuns reads a results file: one JSON object per run, one after
// another. Traced runs carry no end-to-end metrics and are skipped.
func readRuns(path string) ([]runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runFile
	dec := json.NewDecoder(f)
	for {
		var r runFile
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run", path)
	}
	return runs, nil
}

// cell is the values one side has for one (workload, metric).
type cell []float64

// spread is the interquartile range as a share of the median — the
// quantity the acceptance rule bounds. Fewer than two runs have none.
func (c cell) spread() float64 {
	if len(c) < 2 || median(c) == 0 {
		return 0
	}
	q1, q3 := quartiles(c)
	return (q3 - q1) / median(c)
}

// quartiles are the first and third quartile by the method of Python's
// statistics.quantiles(values, n=4): exclusive, linear interpolation.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// verdict applies the rule of the choosing-metrics guide: regressed
// when B's median is worse than A's by more than the bound; otherwise
// unresolved when either side's spread is wider than the bound, unless
// every run of B reads better than every run of A; otherwise ok.
func verdict(a, b cell, better string, bound float64) string {
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+bound)
	if better == "higher" {
		worse = mb < ma*(1-bound)
	}
	if worse {
		return "regressed"
	}
	if a.spread() <= bound && b.spread() <= bound {
		return "ok"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if (better == "higher" && x <= y) || (better != "higher" && x >= y) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return "ok"
	}
	return "unresolved"
}

// compareMain is `benchmark compare A.json B.json`: A is the base
// (the parent commit, or the first set of runs), B the candidate.
func compareMain(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(errOut)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(errOut, "usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(errOut, "compare:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(errOut, "compare: %s: %v\n", *specPath, err)
		return 2
	}
	var sides [2]map[string]map[string]cell // side → workload → metric → values
	for i, path := range fs.Args() {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(errOut, "compare:", err)
			return 2
		}
		sides[i] = map[string]map[string]cell{}
		for _, r := range runs {
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string]cell{}
			}
			for name, v := range r.Metrics {
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], v.Value)
			}
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n, spread)\tB median (n, spread)\tB/A (base A)\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		a, b := sides[0][w.name], sides[1][w.name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ca, cb := a[m.Name], b[m.Name]
			if len(ca) == 0 || len(cb) == 0 {
				continue
			}
			v := verdict(ca, cb, m.Better, m.Bound)
			if v == "regressed" {
				code = 1
			}
			ratio := 0.0
			if ma := median(ca); ma != 0 {
				ratio = median(cb) / ma
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d, %.1f%%)\t%.4f (%d, %.1f%%)\t%.3f\t%.0f%% %s\t%s\n",
				w.name, m.Name, m.Unit, median(ca), len(ca), 100*ca.spread(), median(cb), len(cb), 100*cb.spread(),
				ratio, 100*m.Bound, m.Better, v)
		}
	}
	tw.Flush()
	return code
}
