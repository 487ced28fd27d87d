package main

import (
	"bytes"
	"encoding/json"
	"math/rand"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/pattern"
)

// batchRows is the size of every small mutation: 100 rows per /append
// or /delete, 0.1% of the 100 000-row tenants.
const batchRows = 100

// patternsPerRequest is the size of every /coverage batch.
const patternsPerRequest = 64

// The corpus is multi-domain on purpose (CoverageBench's argument, see
// PAPERS.md): wide boolean and skewed (AirBnB), narrow with large
// cardinalities and correlated attributes (BlueNile), tiny real-world
// demographics (COMPAS), independent Zipf attributes of mixed
// cardinality. All of it comes from internal/datagen; every
// distribution is fixed and the run's seed picks the sample. Sizes are
// the paper's where the paper names one.
var zipfCards = []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}

// corpus is one generated dataset: its schema and n rows.
type corpus struct {
	schema *dataset.Schema
	rows   [][]uint8
}

// generator draws an n-row corpus from a fixed distribution; the seed
// picks the sample.
type generator func(n int, seed int64) corpus

// airbnbPopulation fixes the AirBnB distribution. datagen.AirBnB draws
// the amenity popularities and archetype tilts themselves from its
// seed, so two seeds give two different problems — MUP counts, and with
// them every search and repair time, moved by ±25% between seeds. The
// benchmark instead generates one population under this constant and
// lets the run's seed pick which of its rows are used, in which order:
// the same distribution every run, a different sample per seed, which
// is what the other generators do by construction.
const airbnbPopulation = 20190408

func genAirBnB(d int) generator {
	return func(n int, seed int64) corpus {
		ds := datagen.AirBnB(n+min(n, 200000), d, airbnbPopulation)
		rows := rowsOf(ds)
		rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return corpus{ds.Schema(), rows[:n]}
	}
}

func genBlueNile(n int, seed int64) corpus {
	ds := datagen.BlueNile(n, seed)
	return corpus{ds.Schema(), rowsOf(ds)}
}

func genZipf10(n int, seed int64) corpus {
	ds := datagen.Zipf(n, zipfCards, 1.2, seed)
	return corpus{ds.Schema(), rowsOf(ds)}
}

func genCOMPAS(n int, seed int64) corpus {
	ds, _ := datagen.COMPAS(n, seed)
	return corpus{ds.Schema(), rowsOf(ds)}
}

// rowsOf returns views of the rows of ds.
func rowsOf(ds *dataset.Dataset) [][]uint8 {
	rows := make([][]uint8, ds.NumRows())
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	return rows
}

// batchesOf cuts rows into batchRows-sized batches.
func batchesOf(rows [][]uint8) [][][]uint8 {
	out := make([][][]uint8, len(rows)/batchRows)
	for i := range out {
		out[i] = rows[i*batchRows : (i+1)*batchRows]
	}
	return out
}

// scaled shrinks a dataset size for the in-test pass, keeping enough
// rows for the thresholds to mean something.
func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s >= 2*batchRows {
		return s
	}
	return 2 * batchRows
}

// scaledTau gives the threshold for a dataset shrunk to rows rows. At
// full size it is tau. A shrunk dataset is for the in-test pass, where
// what matters is that every path runs, quickly: the threshold shrinks
// with the rows but not below 2% of them, since thresholds of a few rows
// yield MUP sets — and search times — larger than at full size.
func scaledTau(tau int64, rows int, scale float64) int64 {
	if scale >= 1 {
		return tau
	}
	return max(int64(float64(tau)*scale), int64(rows/50), 2)
}

// randomPattern draws a pattern with between 1 and maxLevel
// deterministic attributes, values uniform within each cardinality.
func randomPattern(rng *rand.Rand, cards []int, maxLevel int) pattern.Pattern {
	p := pattern.All(len(cards))
	level := 1 + rng.Intn(min(maxLevel, len(cards)))
	for _, j := range rng.Perm(len(cards))[:level] {
		p[j] = uint8(rng.Intn(cards[j]))
	}
	return p
}

// coverageRequests draws n /coverage batches of levels 1–6 over a schema.
func coverageRequests(rng *rand.Rand, schema *dataset.Schema, n int) []*coverageRequest {
	reqs := make([]*coverageRequest, n)
	for i := range reqs {
		r := &coverageRequest{patterns: make([]string, patternsPerRequest)}
		for j := range r.patterns {
			r.patterns[j] = randomPattern(rng, schema.Cards(), 6).String()
		}
		var b bytes.Buffer
		// Encoding a []string cannot fail.
		_ = json.NewEncoder(&b).Encode(map[string]any{"patterns": r.patterns})
		r.body = b.Bytes()
		reqs[i] = r
	}
	return reqs
}
