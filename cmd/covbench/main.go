// Command covbench regenerates every figure of the evaluation section
// of Asudeh et al. (ICDE 2019) as printed series: the MUP level
// distribution (Fig 6), the COMPAS audit and classifier experiments
// (§V-B, Fig 11), the MUP-identification sweeps (Figs 12-16) and the
// coverage-enhancement sweeps (Figs 17-19).
//
// Usage:
//
//	covbench [flags] fig6|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|compas-mups|compas-enhance|engine|persist|shard|plan|registry|replica|wal|all
//
// Flags:
//
//	-n int        dataset size for the AirBnB sweeps (default 1000000)
//	-quick        laptop-scale parameters (n=100000, narrower sweeps)
//	-apriori      include the APRIORI baseline in fig12 (can take minutes)
//	-naive        include the naive hitting-set baseline in fig17 (slow)
//	-check        shard: fail (exit 1) when a multi-core host measures no 4-shard win
//	-seed int     generator seed (default 42)
//	-benchout s   JSON output file for the engine experiment (default BENCH_engine.json)
//	-persistout s JSON output file for the persist experiment (default BENCH_persist.json)
//
// The engine experiment measures the incremental engine's hot paths
// (append, delete, window eviction, cached-MUP repair) with
// testing.Benchmark and writes machine-readable ns/op to -benchout, so
// the perf trajectory can be tracked across commits. The persist
// experiment does the same for the durability layer: snapshot
// write/restore cost and size versus rows, the WAL's per-batch
// overhead, and warm boot (snapshot + WAL tail) against a
// from-scratch rebuild.
//
// Absolute runtimes differ from the paper's Java/Xeon testbed; the
// reproduced quantities are the shapes: who wins where, crossovers,
// exponential growth in d, and greedy ≪ naive. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

type config struct {
	n           int
	quick       bool
	apriori     bool
	naive       bool
	check       bool
	seed        int64
	benchOut    string
	persistOut  string
	shardOut    string
	planOut     string
	registryOut string
	replicaOut  string
	walOut      string
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "covbench:", err)
	os.Exit(1)
}

var experiments = []struct {
	name string
	desc string
	run  func(config)
}{
	{"fig6", "MUP level distribution (AirBnB, n=1000, d=13, τ=50)", fig6},
	{"compas-mups", "COMPAS MUP audit (§V-B1, τ=10)", compasMUPs},
	{"fig11", "classifier accuracy vs subgroup coverage (§V-B2)", fig11},
	{"compas-enhance", "validated enhancement at λ=2 (§V-B3)", compasEnhance},
	{"fig12", "MUP identification vs threshold (AirBnB, d=15)", fig12},
	{"fig13", "MUP identification vs threshold (BlueNile, d=7)", fig13},
	{"fig14", "MUP identification vs data size (AirBnB, d=15, τ=0.1%)", fig14},
	{"fig15", "MUP identification vs dimensions (AirBnB, τ=0.1%)", fig15},
	{"fig16", "level-bounded DeepDiver vs dimensions (AirBnB, τ=0.1%)", fig16},
	{"fig17", "coverage enhancement vs threshold (AirBnB, d=13)", fig17},
	{"fig18", "coverage enhancement vs dimensions (AirBnB, τ=0.1%)", fig18},
	{"fig19", "enhancement input/output sizes vs dimensions (AirBnB, τ=0.1%)", fig19},
	{"engine", "incremental-engine micro-benchmarks (append/delete/window/MUP repair) → JSON", engineBench},
	{"persist", "persistence micro-benchmarks (snapshot write/restore, WAL, warm boot vs rebuild) → JSON", persistBench},
	{"shard", "shard-scaling sweep (append/MUP-search/repair at 1,2,4,8 shards) → JSON", shardBench},
	{"plan", "remediation planner: incremental repair vs from-scratch at 1,4 workers → JSON", planBench},
	{"registry", "multi-tenant registry (lease, park/restore, create/drop, pooled search) → JSON", registryBench},
	{"replica", "delta snapshots + WAL-feed replication (delta vs full write, follower catch-up, bounded-staleness reads) → JSON", replicaBench},
	{"wal", "group-commit write pipeline (grouped vs per-record fsync by writer count, streamed vs polled replication lag) → JSON", walBench},
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.n, "n", 1000000, "dataset size for the AirBnB sweeps")
	flag.BoolVar(&cfg.quick, "quick", false, "laptop-scale parameters")
	flag.BoolVar(&cfg.apriori, "apriori", false, "include the APRIORI baseline in fig12")
	flag.BoolVar(&cfg.naive, "naive", false, "include the naive hitting-set baseline in fig17")
	flag.BoolVar(&cfg.check, "check", false, "shard/wal experiments: exit 1 when a GOMAXPROCS≥4 host misses the concurrency gates (shard: speedup_4v1 ≥ 1; wal: grouped ≥ 3× per-record at 8 writers and streamed lag p50 ≤ poll/10)")
	flag.Int64Var(&cfg.seed, "seed", 42, "generator seed")
	flag.StringVar(&cfg.benchOut, "benchout", "BENCH_engine.json", "output file for the engine experiment's JSON results")
	flag.StringVar(&cfg.persistOut, "persistout", "BENCH_persist.json", "output file for the persist experiment's JSON results")
	flag.StringVar(&cfg.shardOut, "shardout", "BENCH_shard.json", "output file for the shard experiment's JSON results")
	flag.StringVar(&cfg.planOut, "planout", "BENCH_plan.json", "output file for the plan experiment's JSON results")
	flag.StringVar(&cfg.registryOut, "registryout", "BENCH_registry.json", "output file for the registry experiment's JSON results")
	flag.StringVar(&cfg.replicaOut, "replicaout", "BENCH_replica.json", "output file for the replica experiment's JSON results")
	flag.StringVar(&cfg.walOut, "walout", "BENCH_wal.json", "output file for the wal experiment's JSON results")
	flag.Parse()
	if cfg.quick && cfg.n == 1000000 {
		cfg.n = 100000
	}

	args := flag.Args()
	if len(args) != 1 {
		usage()
	}
	if args[0] == "all" {
		for _, e := range experiments {
			fmt.Printf("==> %s: %s\n", e.name, e.desc)
			e.run(cfg)
			fmt.Println()
		}
		return
	}
	for _, e := range experiments {
		if e.name == args[0] {
			fmt.Printf("==> %s: %s\n", e.name, e.desc)
			e.run(cfg)
			return
		}
	}
	usage()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: covbench [flags] <experiment>|all")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-15s %s\n", e.name, e.desc)
	}
	os.Exit(2)
}
