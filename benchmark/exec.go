package main

import (
	"time"

	"coverage/internal/dataset"
)

// executor is the system under load as one closed-loop client sees
// it. The workloads are written once against it: the HTTP executor
// drives a real covserve subprocess over one keep-alive connection,
// the in-process executor of the traced run calls the layers' public
// functions in handler order and records a span around each. Every
// call returns how long the caller waited.
type executor interface {
	create(id string, schema *dataset.Schema) (time.Duration, error)
	drop(id string) (time.Duration, error)
	// bulk loads rows the way a bulk client does: one NDJSON stream.
	bulk(id string, rows [][]uint8) (time.Duration, error)
	appendRows(id string, rows [][]uint8) (time.Duration, error)
	deleteRows(id string, rows [][]uint8) (time.Duration, error)
	coverage(id string, req *coverageRequest) ([]int64, time.Duration, error)
	mups(id string, tau int64) (*mupsAnswer, time.Duration, error)
	plan(id string, tau int64, maxLevel int) (*planAnswer, time.Duration, error)
	snapshot(id string) (time.Duration, error)
	// rows is the tenant's row count as /healthz reports it.
	rows(id string) (int64, error)
	// counters reads the layer counters a tenant exposes.
	counters(id string) (*tenantCounters, error)
}

// coverageRequest is one /coverage batch: the patterns in the paper's
// compact notation and, for the HTTP executor, the body encoded once.
type coverageRequest struct {
	patterns []string
	body     []byte
}

// mupsAnswer is what a /mups reply says, reduced to what the checks
// and the counters need.
type mupsAnswer struct {
	Rows      int64
	Threshold int64
	Total     int
	MUPs      []string
	Algorithm string
	Probes    int64
	// Bytes is the size of the reply body (0 in process).
	Bytes int
}

type planSuggestion struct {
	Collect string
	Combo   string
}

type planAnswer struct {
	Threshold   int64
	Targets     int
	Tuples      int
	Algorithm   string
	Suggestions []planSuggestion
}

// tenantCounters are the monotonic counters of one tenant's engine and
// store, as /stats exposes them; the benchmark reports their deltas
// around the measured phase.
type tenantCounters struct {
	Distinct           int64
	Compactions        int64
	FullSearches       int64
	Repairs            int64
	BidirRepairs       int64
	CacheHits          int64
	StoreBytes         int64
	PlanHits           int64
	PlanBuilds         int64
	PlanTargetRepairs  int64
	PlanSeededRebuilds int64
	Snapshots          int64
	DeltaSnapshots     int64
	LastSnapshotBytes  int64
	WALRecords         int64
	WALBytes           int64
	GroupCommits       int64
	GroupRecords       int64
	CoalescedAppends   int64
}
