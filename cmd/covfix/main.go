// Command covfix computes a minimum additional-data-collection plan
// (the paper's coverage enhancement, Problem 2) for a CSV dataset:
// the fewest value combinations to collect so that no pattern of at
// most λ attributes remains uncovered.
//
// Usage:
//
//	covfix -csv data.csv [-columns a,b,c] (-tau 30 | -rate 0.001)
//	       -lambda 2 [-rules rules.json] [-costs costs.json]
//	       [-out augmented.csv] [-copies τ]
//
// The optional rules file holds validation rules as JSON:
//
//	[
//	  {"conditions": [{"attr": "marital", "values": ["unknown"]}]},
//	  {"conditions": [{"attr": "age", "values": ["under 20"]},
//	                  {"attr": "marital", "values": ["married", "divorced"]}]}
//	]
//
// Each rule describes an invalid conjunction; suggestions will satisfy
// none of them (paper Definitions 10-11).
//
// The optional costs file switches the planner to the weighted
// objective (most newly covered patterns per unit acquisition cost):
// per attribute, per value label, the positive cost of collecting a
// respondent with that value. Unlisted values cost 1.
//
//	{"race": {"amer-indian": 5, "other": 3}, "age": {"under 20": 2}}
//
// Rules and costs are the same planner knobs covserve's /plan endpoint
// exercises, so a plan computed offline here matches the served one
// configuration for configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"coverage"
)

type jsonRule struct {
	Conditions []jsonCondition `json:"conditions"`
}

type jsonCondition struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values"`
}

func main() {
	var (
		csvPath   = flag.String("csv", "", "CSV file to fix (first row is the header)")
		columns   = flag.String("columns", "", "comma-separated attributes of interest (default: all)")
		tau       = flag.Int64("tau", 0, "absolute coverage threshold τ")
		rate      = flag.Float64("rate", 0, "threshold as a fraction of the dataset size")
		lambda    = flag.Int("lambda", 2, "target maximum covered level λ")
		minVC     = flag.Uint64("min-value-count", 0, "alternative objective: cover patterns with at least this value count")
		rulesPath = flag.String("rules", "", "JSON file with validation rules")
		costsPath = flag.String("costs", "", "JSON file with per-attribute-value acquisition costs (switches to the weighted objective)")
		outPath   = flag.String("out", "", "write the augmented dataset to this CSV file")
		copies    = flag.Int("copies", 0, "rows to append per suggestion when -out is set (default: τ)")
		naive     = flag.Bool("naive", false, "use the naive hitting-set baseline (exponential)")
		format    = flag.String("format", "text", "output format: text, markdown or json")
	)
	flag.Parse()

	if *csvPath == "" {
		fatal(fmt.Errorf("a -csv file is required"))
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		fatal(err)
	}
	var cols []string
	if *columns != "" {
		cols = strings.Split(*columns, ",")
	}
	ds, err := coverage.ReadCSV(f, coverage.CSVOptions{Columns: cols})
	f.Close()
	if err != nil {
		fatal(err)
	}

	an := coverage.NewAnalyzer(ds)
	rep, err := an.FindMUPs(coverage.FindOptions{Threshold: *tau, ThresholdRate: *rate})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("found %d maximal uncovered patterns at τ = %d\n", len(rep.MUPs), rep.Threshold)

	var oracle *coverage.Oracle
	if *rulesPath != "" {
		oracle, err = loadRules(*rulesPath, ds.Schema())
		if err != nil {
			fatal(err)
		}
	}
	planOpts := coverage.PlanOptions{Oracle: oracle, Naive: *naive}
	if *costsPath != "" {
		planOpts.Cost, err = loadCosts(*costsPath, ds.Schema())
		if err != nil {
			fatal(err)
		}
	}
	if *minVC > 0 {
		planOpts.MinValueCount = *minVC
	} else {
		planOpts.MaxLevel = *lambda
	}
	plan, err := an.Plan(rep, planOpts)
	if err != nil {
		fatal(err)
	}
	if err := an.RenderPlan(os.Stdout, *format, plan, planOpts); err != nil {
		fatal(err)
	}

	if *outPath != "" {
		c := *copies
		if c <= 0 {
			c = int(rep.Threshold)
		}
		aug := ds.Clone()
		if err := plan.Apply(aug, c); err != nil {
			fatal(err)
		}
		out, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := aug.WriteCSV(out); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s with %d appended rows (%d per suggestion)\n",
			*outPath, c*plan.NumTuples(), c)
	}
}

func loadRules(path string, schema *coverage.Schema) (*coverage.Oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jr []jsonRule
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	rules := make([]coverage.Rule, 0, len(jr))
	for ri, r := range jr {
		var rule coverage.Rule
		for _, c := range r.Conditions {
			attr, ok := schema.AttrIndex(c.Attr)
			if !ok {
				return nil, fmt.Errorf("rule %d references unknown attribute %q", ri, c.Attr)
			}
			var values []uint8
			for _, v := range c.Values {
				code, ok := schema.ValueCode(attr, v)
				if !ok {
					return nil, fmt.Errorf("rule %d: attribute %q has no value %q", ri, c.Attr, v)
				}
				values = append(values, code)
			}
			rule.Conditions = append(rule.Conditions, coverage.Condition{Attr: attr, Values: values})
		}
		rules = append(rules, rule)
	}
	return coverage.NewOracle(schema, rules)
}

// loadCosts parses the weighted cost model: attribute name → value
// label → positive cost, defaulting to 1 for anything unlisted.
func loadCosts(path string, schema *coverage.Schema) (*coverage.CostModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var byLabel map[string]map[string]float64
	if err := json.Unmarshal(data, &byLabel); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	costs := make([][]float64, schema.Dim())
	for i := range costs {
		costs[i] = make([]float64, len(schema.Attr(i).Values))
		for v := range costs[i] {
			costs[i][v] = 1
		}
	}
	for name, values := range byLabel {
		attr, ok := schema.AttrIndex(name)
		if !ok {
			return nil, fmt.Errorf("costs file references unknown attribute %q", name)
		}
		for label, cost := range values {
			code, ok := schema.ValueCode(attr, label)
			if !ok {
				return nil, fmt.Errorf("costs file: attribute %q has no value %q", name, label)
			}
			costs[attr][code] = cost
		}
	}
	return coverage.NewCostModel(schema, costs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "covfix:", err)
	os.Exit(1)
}
