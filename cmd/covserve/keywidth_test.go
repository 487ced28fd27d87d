package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// binarySchemaJSON is a PUT /datasets/{id} body of d boolean attributes.
func binarySchemaJSON(d int) string {
	attrs := make([]string, d)
	for i := range attrs {
		attrs[i] = fmt.Sprintf(`{"name":"b%d","values":["no","yes"]}`, i)
	}
	return `{"attributes":[` + strings.Join(attrs, ",") + `]}`
}

// TestGatewayKeyWidthLimit is the schema limit at the HTTP surface. 64
// binary attributes need a 128-bit combination key, the widest there
// is: the tenant is created, and its /coverage and level-bounded /mups
// answers equal the in-process oracle and ParallelPatternBreaker over
// the same rows. 65 attributes (130 bits) and a schema that repeats a
// value label are refused with 400 and an error saying why.
func TestGatewayKeyWidthLimit(t *testing.T) {
	g, _ := gatewayFixture(t, false)
	const d = 64
	if w := doG(t, g, "PUT", "/datasets/wide", binarySchemaJSON(d)); w.Code != http.StatusCreated {
		t.Fatalf("create with %d binary attributes: status %d: %s", d, w.Code, w.Body)
	}

	// Attribute i is "yes" with probability (i%8+1)/10, so the rarer
	// pairs fall below τ and level-2 MUPs exist beside covered ones.
	rng := rand.New(rand.NewSource(64))
	ds := dataset.New(dataset.BinarySchema("b", d))
	var body strings.Builder
	body.WriteString(`{"codes":[`)
	for r := 0; r < 300; r++ {
		row := make([]uint8, d)
		for i := range row {
			if rng.Float64() < float64(i%8+1)/10 {
				row[i] = 1
			}
		}
		ds.MustAppend(row)
		if r > 0 {
			body.WriteByte(',')
		}
		body.WriteString(strings.ReplaceAll(fmt.Sprint(row), " ", ","))
	}
	body.WriteString(`]}`)
	if w := doG(t, g, "POST", "/datasets/wide/append", body.String()); w.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", w.Code, w.Body)
	}
	ix := index.Build(ds)

	// Coverage: the root, every level-1 pattern, a spread of level-2
	// ones and a few full rows.
	ps := []pattern.Pattern{pattern.All(d)}
	for i := 0; i < d; i++ {
		for v := uint8(0); v < 2; v++ {
			p := pattern.All(d)
			p[i] = v
			ps = append(ps, p)
			q := p.Clone()
			q[(i*7+3)%d] = 1 - v
			ps = append(ps, q)
		}
	}
	for r := 0; r < 5; r++ {
		ps = append(ps, pattern.Pattern(ds.Row(r*37)).Clone())
	}
	texts := make([]string, len(ps))
	for i, p := range ps {
		texts[i] = `"` + p.String() + `"`
	}
	w := doG(t, g, "POST", "/datasets/wide/coverage", `{"patterns":[`+strings.Join(texts, ",")+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("coverage: status %d: %s", w.Code, w.Body)
	}
	cov := decode[coverageResponse](t, w)
	if len(cov.Results) != len(ps) {
		t.Fatalf("coverage answered %d patterns, asked %d", len(cov.Results), len(ps))
	}
	for i, p := range ps {
		if got, want := cov.Results[i].Coverage, ix.Coverage(p); got != want {
			t.Fatalf("cov(%v) = %d over HTTP, %d in process", p, got, want)
		}
	}

	const tau = 20
	want, err := mup.ParallelPatternBreaker(ix, mup.ParallelOptions{Options: mup.Options{Threshold: tau, MaxLevel: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.MUPs) == 0 || len(want.MUPs) > 2000 {
		t.Fatalf("fixture has %d level-≤2 MUPs at τ=%d; it should have some, not every pair", len(want.MUPs), tau)
	}
	w = doG(t, g, "GET", fmt.Sprintf("/datasets/wide/mups?tau=%d&maxlevel=2", tau), "")
	if w.Code != http.StatusOK {
		t.Fatalf("mups: status %d: %s", w.Code, w.Body)
	}
	got := decode[mupsResponse](t, w)
	if got.TotalMUPs != len(want.MUPs) || len(got.MUPs) != len(want.MUPs) {
		t.Fatalf("HTTP reports %d MUPs (%d listed), ParallelPatternBreaker %d", got.TotalMUPs, len(got.MUPs), len(want.MUPs))
	}
	for i, m := range want.MUPs {
		if got.MUPs[i].Pattern != m.String() || got.MUPs[i].Level != m.Level() {
			t.Fatalf("MUP %d: HTTP %s (level %d), in process %s (level %d)",
				i, got.MUPs[i].Pattern, got.MUPs[i].Level, m, m.Level())
		}
	}

	w = doG(t, g, "PUT", "/datasets/wider", binarySchemaJSON(d+1))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "130-bit") {
		t.Fatalf("create with %d binary attributes: status %d, want 400 naming the 130-bit key: %s", d+1, w.Code, w.Body)
	}
	dup := `{"attributes":[{"name":"a","values":["y","y"]},{"name":"b","values":["p","q"]}]}`
	w = doG(t, g, "PUT", "/datasets/dup", dup)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "duplicate value") {
		t.Fatalf("create with a repeated value label: status %d, want 400 naming it: %s", w.Code, w.Body)
	}
	for _, id := range []string{"wider", "dup"} {
		if w := doG(t, g, "GET", "/datasets/"+id+"/stats", ""); w.Code != http.StatusNotFound {
			t.Fatalf("refused create of %q left a tenant behind: status %d, want 404", id, w.Code)
		}
	}
}

// TestBootRefusesTooWideCSV: covserve booted on a CSV whose columns
// together pass the key limit exits with an error that tells the
// operator to select columns with -columns.
func TestBootRefusesTooWideCSV(t *testing.T) {
	bin := buildCovserveBinary(t)
	var sb strings.Builder
	for i := 0; i < 70; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "c%d", i)
	}
	for r := 0; r < 3; r++ {
		sb.WriteByte('\n')
		sb.WriteString(strings.TrimSuffix(strings.Repeat([]string{"no,", "yes,"}[r%2], 70), ","))
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-csv", path, "-addr", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("covserve on a 70-column binary CSV: %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "-columns") {
		t.Fatalf("covserve's boot error does not name -columns:\n%s", out)
	}
}
