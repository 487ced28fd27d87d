// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/covserve, boots it as a real subprocess with durable storage and
// drives it over HTTP with four closed-loop workloads — ingest, probe,
// refresh, audit — checking every kind of answer against the rows it
// sent. See README.md in this directory for the metric and workload
// glossary.
//
// Usage (from the repository root):
//
//	go run ./benchmark [--workload all|ingest|probe|refresh|audit] [--seed n] [--seconds s] [--trace 0|1]
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark spec > BENCHMARK.json
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1
// it runs the workload once over HTTP and once through the same layers
// in process with a span around every call, reports the per-layer
// metrics and the per-operation budget, and writes the spans to
// benchmark/out/trace-<workload>.json. The last line of standard output
// is one JSON object per workload; every run is also appended, with its
// host stamp and sample counts, to benchmark/out/results.json, the
// input of compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setups is how many times an untraced run performs the whole set-up;
// setup_s is their median.
const setups = 3

type config struct {
	workload string
	seed     int64
	sz       sizing
	setups   int
	trace    bool
	buildDir string
	outDir   string // results.json and the span files go here
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "spec" {
		if err := writeSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: ingest, probe, refresh, audit or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.sz.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for result and span files")
	flag.Parse()
	if flag.NArg() > 0 || cfg.sz.seconds <= 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.setups = setups
	cfg.sz.scale = 1
	cfg.sz.warm = warmSeconds
	cfg.buildDir = buildDir

	// A signal takes the servers down with the benchmark.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	specs := workloads
	if cfg.workload != "all" {
		spec, err := findWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		specs = []workloadSpec{spec}
	}
	code := 0
	for _, spec := range specs {
		run, err := runOne(cfg, spec, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
			killAll()
			os.Exit(1)
		}
		if !run.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// runFile is one run as results.json keeps it.
type runFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	When      string             `json:"when"`
	Host      hostStamp          `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	OpCounts  map[string]int     `json:"op_counts"`
	Metrics   map[string]value   `json:"metrics"`
	Budgets   []budget           `json:"budgets,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	// InProcess holds what the traced run's in-process half observed of
	// the same operation sequence: the counters that depend only on that
	// sequence must equal the HTTP half's.
	InProcess map[string]float64 `json:"in_process_counters,omitempty"`
}

// runOne runs one workload as cfg says, prints every metric and the
// contract's result line to out, and appends the run to results.json.
func runOne(cfg config, spec workloadSpec, out io.Writer) (*runFile, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	host := stampHost(cfg.buildDir)
	bin, buildTime, err := buildServer(cfg.buildDir)
	if err != nil {
		return nil, err
	}
	var t tally
	genStart := time.Now()
	w := spec.make(cfg.seed, cfg.sz.scale, &t)
	genTime := time.Since(genStart)

	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	sys := &httpSystem{bin: bin, root: cfg.buildDir, workload: spec.name}
	rr, err := runWorkload(sys, w, cfg.sz, n, &t)
	if err != nil {
		return nil, err
	}
	file := runFile{
		Workload: spec.name, Seed: cfg.seed, Seconds: cfg.sz.seconds, Trace: cfg.trace,
		When: time.Now().UTC().Format(time.RFC3339), Host: host, OpCounts: map[string]int{},
	}
	for kind, xs := range rr.lat.ms {
		file.OpCounts[kind] = len(xs)
	}
	attempted, failed := rr.sent, rr.failed

	fmt.Fprintf(out, "== %s: seed %d, %.0f s after %.0f s of warm-up, %d client(s), trace %v\n", spec.name, cfg.seed, cfg.sz.seconds, cfg.sz.warm, w.clients(), cfg.trace)
	printLatencies(out, rr.lat.ms)
	if !cfg.trace {
		file.Metrics = endToEndMetrics(w, rr)
		printMetrics(out, "end-to-end metrics", endToEnd, file.Metrics)
	} else {
		var t2 tally
		w2 := spec.make(cfg.seed, cfg.sz.scale, &t2)
		insys := &inprocSystem{root: cfg.buildDir, workload: spec.name}
		ir, err := runWorkload(insys, w2, cfg.sz, 1, &t2)
		if err != nil {
			return nil, fmt.Errorf("in-process run: %w", err)
		}
		spans := mergeSpans(insys.tracers)
		ts := summarize(spans)
		file.Budgets = budgets(rr.lat.ms, ts)
		file.Extra = map[string]float64{
			"bench.build_s":          buildTime.Seconds(),
			"bench.gen_ms":           ms(genTime),
			"bench.client_cpu_s":     rr.clientCPUS,
			"trace.span_overhead_ns": spanOverhead(),
			"host.fsync_us":          host.FsyncUs,
		}
		insys.baselines(file.Extra)
		file.InProcess = ir.obs
		file.Metrics = perLayerMetrics(traceInputs{
			spec: spec, http: rr, inproc: ir, ts: ts, budgets: file.Budgets,
			sys: sys, insys: insys, extra: file.Extra,
		})
		printMetrics(out, "per-layer metrics", perLayer, file.Metrics)
		for _, b := range file.Budgets {
			fmt.Fprintln(out, b)
		}
		path := filepath.Join(cfg.outDir, "trace-"+spec.name+".json")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%d spans written to %s\n", len(spans), path)
		t.checks.Add(t2.checks.Load())
		t.wrong.Add(t2.wrong.Load())
		t.notes = append(t.notes, t2.notes...)
		attempted += ir.sent
	}
	attempted += t.checks.Load()
	failed += t.wrong.Load()
	file.Correct, file.Attempted, file.Failed, file.Failures = failed == 0, attempted, failed, t.notes
	for _, note := range t.notes {
		fmt.Fprintln(out, "FAILED:", note)
	}
	if err := appendRun(resultsPath(cfg.outDir), file); err != nil {
		return nil, err
	}
	line, err := json.Marshal(resultLine{Correct: file.Correct, Attempted: attempted, Failed: failed, Metrics: file.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return &file, nil
}

// resultsPath is the file every run is appended to.
func resultsPath(outDir string) string { return filepath.Join(outDir, "results.json") }

// appendRun adds one run to the results file, one JSON object a line.
func appendRun(path string, file runFile) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(file); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
