package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"coverage/internal/dataset"
)

// requestTimeout bounds every request; the slowest legitimate one (a
// cold search plus a multi-megabyte reply) takes a few seconds.
const requestTimeout = 60 * time.Second

// httpExec is one closed-loop HTTP client: its own transport capped at
// a single keep-alive connection, so a client goroutine is exactly one
// connection. Latency runs from writing the request to reading the
// last byte of the reply; decoding the reply is the caller's own time
// and stays outside it.
type httpExec struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // request body, reused
	resp bytes.Buffer // reply body, reused
	// requests and failed count every request this client sent and the
	// non-2xx or undeliverable ones among them.
	requests, failed int64
	// respBytes is the size of the last reply, mutateBytes that of the
	// last /append or /delete body.
	respBytes, mutateBytes int
}

func newHTTPExec(base string) *httpExec {
	return &httpExec{
		base: base,
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *httpExec) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.resp.
func (c *httpExec) do(method, path, contentType string, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.requests++
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	c.respBytes = c.resp.Len()
	if err != nil {
		c.failed++
		return d, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.failed++
		return d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	return d, nil
}

func (c *httpExec) decode(v any) error {
	if err := json.Unmarshal(c.resp.Bytes(), v); err != nil {
		c.failed++
		return fmt.Errorf("decoding reply: %w", err)
	}
	return nil
}

func tenantPath(id, rest string) string { return "/datasets/" + id + rest }

func (c *httpExec) create(id string, schema *dataset.Schema) (time.Duration, error) {
	type attr struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	attrs := make([]attr, schema.Dim())
	for i := range attrs {
		a := schema.Attr(i)
		attrs[i] = attr{Name: a.Name, Values: a.Values}
	}
	body, err := json.Marshal(map[string]any{"attributes": attrs})
	if err != nil {
		return 0, err
	}
	return c.do(http.MethodPut, "/datasets/"+id, "application/json", body)
}

func (c *httpExec) drop(id string) (time.Duration, error) {
	return c.do(http.MethodDelete, "/datasets/"+id, "", nil)
}

// appendCodes writes rows as a JSON array of code arrays.
func appendCodes(b *bytes.Buffer, rows [][]uint8, sep byte) {
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(sep)
		}
		b.WriteByte('[')
		for j, v := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			b.Write(strconv.AppendUint(b.AvailableBuffer(), uint64(v), 10))
		}
		b.WriteByte(']')
	}
}

func (c *httpExec) bulk(id string, rows [][]uint8) (time.Duration, error) {
	c.buf.Reset()
	appendCodes(&c.buf, rows, '\n')
	c.buf.WriteByte('\n')
	d, err := c.do(http.MethodPost, tenantPath(id, "/append"), "application/x-ndjson", c.buf.Bytes())
	if err != nil {
		return d, err
	}
	return d, c.checkMutation("appended", len(rows))
}

func (c *httpExec) mutate(id, verb, field string, rows [][]uint8) (time.Duration, error) {
	c.buf.Reset()
	c.buf.WriteString(`{"codes":[`)
	appendCodes(&c.buf, rows, ',')
	c.buf.WriteString(`]}`)
	c.mutateBytes = c.buf.Len()
	d, err := c.do(http.MethodPost, tenantPath(id, verb), "application/json", c.buf.Bytes())
	if err != nil {
		return d, err
	}
	return d, c.checkMutation(field, len(rows))
}

// checkMutation confirms the acknowledgement names the rows sent.
func (c *httpExec) checkMutation(field string, want int) error {
	var ack map[string]int64
	if err := c.decode(&ack); err != nil {
		return err
	}
	if ack[field] != int64(want) {
		c.failed++
		return fmt.Errorf("acknowledgement says %s=%d, %d rows were sent", field, ack[field], want)
	}
	return nil
}

func (c *httpExec) appendRows(id string, rows [][]uint8) (time.Duration, error) {
	return c.mutate(id, "/append", "appended", rows)
}

func (c *httpExec) deleteRows(id string, rows [][]uint8) (time.Duration, error) {
	return c.mutate(id, "/delete", "deleted", rows)
}

func (c *httpExec) coverage(id string, req *coverageRequest) ([]int64, time.Duration, error) {
	d, err := c.do(http.MethodPost, tenantPath(id, "/coverage"), "application/json", req.body)
	if err != nil {
		return nil, d, err
	}
	var reply struct {
		Results []struct {
			Coverage int64 `json:"coverage"`
		} `json:"results"`
	}
	if err := c.decode(&reply); err != nil {
		return nil, d, err
	}
	covs := make([]int64, len(reply.Results))
	for i, r := range reply.Results {
		covs[i] = r.Coverage
	}
	return covs, d, nil
}

func (c *httpExec) mups(id string, tau int64) (*mupsAnswer, time.Duration, error) {
	d, err := c.do(http.MethodGet, tenantPath(id, "/mups?tau="+strconv.FormatInt(tau, 10)), "", nil)
	if err != nil {
		return nil, d, err
	}
	var reply struct {
		Rows      int64 `json:"rows"`
		Threshold int64 `json:"threshold"`
		Total     int   `json:"total_mups"`
		MUPs      []struct {
			Pattern string `json:"pattern"`
		} `json:"mups"`
		Algorithm string `json:"algorithm"`
		Probes    int64  `json:"coverage_probes"`
	}
	if err := c.decode(&reply); err != nil {
		return nil, d, err
	}
	a := &mupsAnswer{
		Rows: reply.Rows, Threshold: reply.Threshold, Total: reply.Total,
		Algorithm: reply.Algorithm, Probes: reply.Probes, Bytes: c.respBytes,
		MUPs: make([]string, len(reply.MUPs)),
	}
	for i, m := range reply.MUPs {
		a.MUPs[i] = m.Pattern
	}
	return a, d, nil
}

func (c *httpExec) plan(id string, tau int64, maxLevel int) (*planAnswer, time.Duration, error) {
	body := fmt.Appendf(nil, `{"tau":%d,"max_level":%d}`, tau, maxLevel)
	d, err := c.do(http.MethodPost, tenantPath(id, "/plan"), "application/json", body)
	if err != nil {
		return nil, d, err
	}
	var reply struct {
		Threshold   int64  `json:"threshold"`
		Targets     int    `json:"targets"`
		Tuples      int    `json:"tuples_to_collect"`
		Algorithm   string `json:"algorithm"`
		Suggestions []struct {
			Collect string `json:"collect"`
			Combo   string `json:"example_combination"`
		} `json:"suggestions"`
	}
	if err := c.decode(&reply); err != nil {
		return nil, d, err
	}
	a := &planAnswer{
		Threshold: reply.Threshold, Targets: reply.Targets, Tuples: reply.Tuples,
		Algorithm: reply.Algorithm, Suggestions: make([]planSuggestion, len(reply.Suggestions)),
	}
	for i, s := range reply.Suggestions {
		a.Suggestions[i] = planSuggestion{Collect: s.Collect, Combo: s.Combo}
	}
	return a, d, nil
}

func (c *httpExec) snapshot(id string) (time.Duration, error) {
	return c.do(http.MethodPost, tenantPath(id, "/snapshot"), "", nil)
}

func (c *httpExec) rows(id string) (int64, error) {
	if _, err := c.do(http.MethodGet, tenantPath(id, "/healthz"), "", nil); err != nil {
		return 0, err
	}
	var reply struct {
		Rows int64 `json:"rows"`
	}
	err := c.decode(&reply)
	return reply.Rows, err
}

func (c *httpExec) counters(id string) (*tenantCounters, error) {
	if _, err := c.do(http.MethodGet, tenantPath(id, "/stats"), "", nil); err != nil {
		return nil, err
	}
	var st struct {
		Distinct     int64 `json:"distinct_combinations"`
		Compactions  int64 `json:"compactions"`
		FullSearches int64 `json:"full_searches"`
		Repairs      int64 `json:"incremental_repairs"`
		BidirRepairs int64 `json:"bidirectional_repairs"`
		CacheHits    int64 `json:"cache_hits"`
		Shards       []struct {
			StoreBytes int64 `json:"store_bytes"`
		} `json:"shards"`
		PlanCache struct {
			Hits          int64 `json:"hits"`
			Builds        int64 `json:"builds"`
			TargetRepairs int64 `json:"target_repairs"`
			Rebuilds      int64 `json:"seeded_rebuilds"`
		} `json:"plan_cache"`
		Persist *struct {
			Snapshots         int64 `json:"snapshots"`
			DeltaSnapshots    int64 `json:"delta_snapshots"`
			LastSnapshotBytes int64 `json:"last_snapshot_bytes"`
			WALRecords        int64 `json:"wal_records"`
			WALBytes          int64 `json:"wal_bytes"`
			GroupCommits      int64 `json:"wal_group_commits"`
			GroupRecords      int64 `json:"wal_grouped_records"`
			CoalescedAppends  int64 `json:"coalesced_appends"`
		} `json:"persist"`
	}
	if err := c.decode(&st); err != nil {
		return nil, err
	}
	if st.Persist == nil {
		c.failed++
		return nil, fmt.Errorf("/stats of %s has no persist section: the server is not durable", id)
	}
	tc := &tenantCounters{
		Distinct: st.Distinct, Compactions: st.Compactions,
		FullSearches: st.FullSearches, Repairs: st.Repairs, BidirRepairs: st.BidirRepairs,
		CacheHits: st.CacheHits,
		PlanHits:  st.PlanCache.Hits, PlanBuilds: st.PlanCache.Builds,
		PlanTargetRepairs: st.PlanCache.TargetRepairs, PlanSeededRebuilds: st.PlanCache.Rebuilds,
		Snapshots: st.Persist.Snapshots, DeltaSnapshots: st.Persist.DeltaSnapshots,
		LastSnapshotBytes: st.Persist.LastSnapshotBytes,
		WALRecords:        st.Persist.WALRecords, WALBytes: st.Persist.WALBytes,
		GroupCommits: st.Persist.GroupCommits, GroupRecords: st.Persist.GroupRecords,
		CoalescedAppends: st.Persist.CoalescedAppends,
	}
	for _, sh := range st.Shards {
		tc.StoreBytes += sh.StoreBytes
	}
	return tc, nil
}

// registryCounters reads the registry's counters from GET /datasets.
type registryCounters struct {
	Restores  int64 `json:"restores"`
	Evictions int64 `json:"evictions"`
}

func (c *httpExec) registry() (*registryCounters, error) {
	if _, err := c.do(http.MethodGet, "/datasets", "", nil); err != nil {
		return nil, err
	}
	var reply struct {
		Stats registryCounters `json:"stats"`
	}
	err := c.decode(&reply)
	return &reply.Stats, err
}
