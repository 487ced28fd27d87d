package main

import (
	"math"
	"sort"
	"time"
)

// median of xs (the mean of the two middle values for an even count);
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPerMille are the tails the benchmark will report, best first:
// p99.9, p99, p90, p75.
var tailPerMille = []int{999, 990, 900, 750}

// supportsTail is the choosing-metrics rule: a percentile is reported
// only when at least ten of the n samples lie beyond it.
func supportsTail(n, perMille int) bool { return n*(1000-perMille) >= 10*1000 }

// tailPercentile is the highest percentile n samples support. With
// fewer than 40 samples no tail is reported, only the median.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailPerMille {
		if supportsTail(n, pm) {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// samples are values by operation kind.
type samples map[string][]float64

// recorder collects one client's operations: the latency of each in
// milliseconds and when it completed, in seconds since the process
// started (the throughput needs that), both by operation kind; and how
// many rows each bulk load carried, for covserve.bulk_rows_per_s.
type recorder struct {
	ms, at samples
	// bulkRows runs parallel to ms["bulk"].
	bulkRows []float64
}

func newRecorder() *recorder { return &recorder{ms: samples{}, at: samples{}} }

var epoch = time.Now()

func sinceEpoch() float64 { return time.Since(epoch).Seconds() }

func (r *recorder) add(kind string, d time.Duration) { r.addMs(kind, ms(d)) }

// addMs records an operation whose latency is a sum of request
// latencies (a cycle, a round, a pass), completed now.
func (r *recorder) addMs(kind string, v float64) {
	r.ms[kind] = append(r.ms[kind], v)
	r.at[kind] = append(r.at[kind], sinceEpoch())
}

func (r *recorder) addBulk(d time.Duration, rows int) {
	r.add("bulk", d)
	r.bulkRows = append(r.bulkRows, float64(rows))
}

// rateBlocks is how many blocks blockRate cuts a phase into.
const rateBlocks = 24

// blockRate is the throughput of a closed-loop phase that started at
// start, from the completion times of its operations: the operations,
// in order of completion, are cut into up to rateBlocks blocks of equal
// count, a block's rate is its count over the time from the previous
// block's last completion to its own, and the median block's rate is
// reported. A few seconds stolen by a neighbour on the shared host cost
// a few blocks, not the run; blocks of equal count (not equal time) lose
// nothing to rounding when a run holds only a dozen operations.
func blockRate(at []float64, start float64) float64 {
	at = append([]float64(nil), at...)
	sort.Float64s(at)
	n := len(at)
	blocks := min(rateBlocks, n)
	var rates []float64
	prev, done := start, 0
	for b := 1; b <= blocks; b++ {
		end := b * n / blocks
		if t := at[end-1]; t > prev {
			rates = append(rates, float64(end-done)/(t-prev))
			prev, done = t, end
		}
	}
	return median(rates)
}

// after returns the operations of r that completed later than t.
func (r *recorder) after(t float64) *recorder {
	out := newRecorder()
	for k, at := range r.at {
		for i, a := range at {
			if a > t {
				out.ms[k] = append(out.ms[k], r.ms[k][i])
				out.at[k] = append(out.at[k], a)
				if k == "bulk" {
					out.bulkRows = append(out.bulkRows, r.bulkRows[i])
				}
			}
		}
	}
	return out
}

// merge folds the clients' recorders into one.
func merge(rs ...*recorder) *recorder {
	out := newRecorder()
	for _, r := range rs {
		for k, v := range r.ms {
			out.ms[k] = append(out.ms[k], v...)
			out.at[k] = append(out.at[k], r.at[k]...)
		}
		out.bulkRows = append(out.bulkRows, r.bulkRows...)
	}
	return out
}
