// Command covbench regenerates every figure of the evaluation section
// of Asudeh et al. (ICDE 2019) as printed series: the MUP level
// distribution (Fig 6), the COMPAS audit and classifier experiments
// (§V-B, Fig 11), the MUP-identification sweeps (Figs 12-16) and the
// coverage-enhancement sweeps (Figs 17-19).
//
// Usage:
//
//	covbench [flags] fig6|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|compas-mups|compas-enhance|all
//
// Flags:
//
//	-n int        dataset size for the AirBnB sweeps (default 1000000)
//	-quick        laptop-scale parameters (n=100000, narrower sweeps)
//	-apriori      include the APRIORI baseline in fig12 (can take minutes)
//	-naive        include the naive hitting-set baseline in fig17 (slow)
//	-seed int     generator seed (default 42)
//
// Absolute runtimes differ from the paper's Java/Xeon testbed; the
// reproduced quantities are the shapes: who wins where, crossovers,
// exponential growth in d, and greedy ≪ naive. The serving stack's
// layers are measured end to end by the benchmark program at the
// repository root (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"os"
)

type config struct {
	n       int
	quick   bool
	apriori bool
	naive   bool
	seed    int64
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
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.n, "n", 1000000, "dataset size for the AirBnB sweeps")
	flag.BoolVar(&cfg.quick, "quick", false, "laptop-scale parameters")
	flag.BoolVar(&cfg.apriori, "apriori", false, "include the APRIORI baseline in fig12")
	flag.BoolVar(&cfg.naive, "naive", false, "include the naive hitting-set baseline in fig17")
	flag.Int64Var(&cfg.seed, "seed", 42, "generator seed")
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
