package main

import (
	"os"
	"strings"
	"testing"
)

func TestTauFor(t *testing.T) {
	cases := []struct {
		rate float64
		n    int
		want int64
	}{
		{0.001, 1000000, 1000},
		{0.01, 116300, 1163},
		{1e-9, 1000, 1},   // never below 1
		{1e-6, 100000, 1}, // rounds down to the floor of 1
		{0.05, 6889, 344}, // truncation, not rounding
	}
	for _, tc := range cases {
		if got := tauFor(tc.rate, tc.n); got != tc.want {
			t.Errorf("tauFor(%v, %d) = %d, want %d", tc.rate, tc.n, got, tc.want)
		}
	}
}

func TestCellStr(t *testing.T) {
	if got := cellStr(-1); got != "-" {
		t.Errorf("cellStr(-1) = %q", got)
	}
	if got := cellStr(1.2345); got != "1.234" && got != "1.235" {
		t.Errorf("cellStr(1.2345) = %q", got)
	}
}

func TestExperimentRegistryNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.desc == "" || e.run == nil {
			t.Errorf("experiment %+v incomplete", e.name)
		}
		if seen[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
	}
	if len(seen) != 12 {
		t.Errorf("%d experiments registered, want 12 (one per figure/table)", len(seen))
	}
}

// TestFixedSizeExperimentsRun runs the two experiments whose inputs do
// not scale with -n through their registry entries and checks that each
// prints its measured series: fig6 (AirBnB n=1000, d=13) and the COMPAS
// MUP audit.
func TestFixedSizeExperimentsRun(t *testing.T) {
	want := map[string][]string{
		"fig6":        {"level", "total:", "MUPs"},
		"compas-mups": {"measured:", "XX23"},
	}
	for _, e := range experiments {
		markers, ok := want[e.name]
		if !ok {
			continue
		}
		delete(want, e.name)
		out := captureStdout(t, func() { e.run(config{seed: 42}) })
		for _, m := range markers {
			if !strings.Contains(out, m) {
				t.Errorf("%s output lacks %q:\n%s", e.name, m, out)
			}
		}
	}
	for name := range want {
		t.Errorf("experiment %q not registered", name)
	}
}

// captureStdout runs fn with os.Stdout redirected to a temporary file
// and returns what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = old }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
