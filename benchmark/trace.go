package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside covserve are a later change). Spans of
// one operation share its op_id; parent is the index of the calling
// span in the file, -1 for an operation's root. A twin span times a
// call the layer above makes internally, where the benchmark cannot
// see it: the same call is repeated on identical inputs right after
// the operation, so it lies outside its parent's interval and is
// charged to the parent by duration.
type span struct {
	Op     int64  `json:"op_id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Twin   bool   `json:"twin,omitempty"`
}

func (s span) duration() int64 { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before
// the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	op    int64
}

func newTracer(t0 time.Time, client int) *tracer {
	// Operation ids are unique across clients: the client number sits
	// above the per-client counter.
	return &tracer{t0: t0, op: int64(client) << 40}
}

// root opens a new operation and returns its root span.
func (t *tracer) root(name string) int {
	t.op++
	return t.begin(name, -1)
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].duration())
}

// twin opens a span for a repeated call, charged to parent and filed
// under the parent's operation.
func (t *tracer) twin(name string, parent int) int {
	i := t.begin(name, parent)
	t.spans[i].Twin = true
	t.spans[i].Op = t.spans[parent].Op
	return i
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children — twins included, which is what charges a repeated
// inner call to the layer that made it. A span whose children outlast
// it (a twin that ran slower than the original) has self time 0.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.duration()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.duration()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// mergeSpans concatenates the clients' spans, rebasing parent indexes.
func mergeSpans(ts []*tracer) []span {
	var all []span
	for _, t := range ts {
		base := len(all)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// spanOverhead calibrates the cost of recording one empty span.
func spanOverhead() float64 {
	const n = 200000
	t := newTracer(time.Now(), 0)
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibration", -1))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// spanFile is the layout of trace-<workload>.json. Hundreds of
// thousands of spans are written, so each is a row of numbers in the
// order fields gives, with the name as an index into names.
type spanFile struct {
	Names  []string  `json:"names"`
	Fields []string  `json:"fields"`
	Spans  [][]int64 `json:"spans"`
}

// writeSpans writes the span file of one traced run.
func writeSpans(path string, spans []span) error {
	file := spanFile{
		Fields: []string{"op_id", "name", "parent", "start_ns", "end_ns", "twin"},
		Spans:  make([][]int64, len(spans)),
	}
	index := map[string]int64{}
	for i, s := range spans {
		n, ok := index[s.Name]
		if !ok {
			n = int64(len(file.Names))
			index[s.Name] = n
			file.Names = append(file.Names, s.Name)
		}
		var twin int64
		if s.Twin {
			twin = 1
		}
		file.Spans[i] = []int64{s.Op, n, int64(s.Parent), s.Start, s.End, twin}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(file); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
