package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lagraph/internal/jobs"
	"lagraph/internal/registry"
)

// neverConverges are PageRank parameters that force the full (effectively
// unbounded) iteration budget: a negative tolerance can never be reached,
// so the job runs until cancelled.
var neverConverges = map[string]any{"tol": -1.0, "max_iter": 1 << 30}

// pollJob polls GET /jobs/{id} until the state predicate holds or the
// deadline passes, returning the last-seen job record.
func pollJob(t *testing.T, base, id string, want func(state string) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		code, body := doJSON(t, "GET", base+"/jobs/"+id, nil)
		if code != 200 {
			t.Fatalf("poll job %s: status %d (%v)", id, code, body)
		}
		last = body
		if want(body["state"].(string)) {
			return body
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached wanted state; last %v", id, last)
	return nil
}

func jobsStats(t *testing.T, base string) map[string]any { return statsSection(t, base, "jobs") }

// statsSection reads one section of GET /stats.
func statsSection(t *testing.T, base, section string) map[string]any {
	t.Helper()
	code, stats := doJSON(t, "GET", base+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	return stats[section].(map[string]any)
}

func TestAsyncJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 7)

	// Submit.
	code, job := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "bfs", "params": map[string]any{"source": 1, "level": true},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, job)
	}
	id := job["id"].(string)
	if job["graph"] != "g" || job["algorithm"] != "bfs" || job["graph_version"].(float64) != 1 {
		t.Fatalf("job record: %v", job)
	}

	// Poll to completion and fetch the result.
	pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })
	code, result := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if code != 200 {
		t.Fatalf("result: %d %v", code, result)
	}
	if _, ok := result["parent"]; !ok {
		t.Fatalf("result missing parent: %v", result)
	}

	// The job shows up in the listing.
	code, listing := doJSON(t, "GET", ts.URL+"/jobs", nil)
	if code != 200 || len(listing["jobs"].([]any)) == 0 {
		t.Fatalf("list: %d %v", code, listing)
	}

	// An identical resubmission is served from the result cache: a new
	// done record, no new computation.
	code, hit := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "bfs", "params": map[string]any{"source": 1, "level": true},
	})
	if code != http.StatusAccepted || hit["state"] != "done" || hit["cache_hit"] != true {
		t.Fatalf("cache-hit submit: %d %v", code, hit)
	}
	if s := jobsStats(t, ts.URL); s["cache_hits"].(float64) != 1 || s["completed"].(float64) != 1 {
		t.Fatalf("stats: %v", s)
	}

	// Errors: unknown job, unknown algorithm, unknown graph.
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/j-999999", nil); code != 404 {
		t.Fatalf("unknown job: %d", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/jobs/j-999999", nil); code != 404 {
		t.Fatalf("cancel unknown job: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "nope"}); code != 404 {
		t.Fatalf("unknown algorithm: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/zzz/jobs", map[string]any{"algorithm": "bfs"}); code != 404 {
		t.Fatalf("unknown graph: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{}); code != 400 {
		t.Fatalf("missing algorithm: %d", code)
	}
}

// TestCancelRunningJobReleasesLease is the acceptance scenario (run under
// -race in CI): a slow job on a generated graph is cancelled mid-run; the
// worker must observe context.Canceled promptly — the algorithm loop polls
// its context — and the graph lease must be released.
func TestCancelRunningJobReleasesLease(t *testing.T) {
	ts, reg := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 12) // ~4k vertices, ~64k edges

	code, job := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "pagerank", "params": neverConverges,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, job)
	}
	id := job["id"].(string)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "running" })

	// The running job pins the graph.
	if info, ok := reg.Info("g"); !ok || info.Refs != 1 {
		t.Fatalf("refs while running = %+v", info)
	}

	cancelled := time.Now()
	if code, _ := doJSON(t, "DELETE", ts.URL+"/jobs/"+id, nil); code != 200 {
		t.Fatalf("cancel: %d", code)
	}
	final := pollJob(t, ts.URL, id, func(s string) bool { return s == "cancelled" })
	if took := time.Since(cancelled); took > 5*time.Second {
		t.Fatalf("cancellation took %s; iteration loop is not observing its context", took)
	}
	if msg, _ := final["error"].(string); !strings.Contains(msg, "context canceled") {
		t.Fatalf("job error = %q, want context canceled", msg)
	}

	// Lease released: the graph is evictable again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok := reg.Info("g")
		if ok && info.Refs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease not released after cancellation: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The cancelled job's result is gone, and the counter recorded it.
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil); code != http.StatusGone {
		t.Fatalf("result of cancelled job: %d, want 410", code)
	}
	if s := jobsStats(t, ts.URL); s["cancelled"].(float64) != 1 {
		t.Fatalf("cancelled counter: %v", s)
	}
}

// TestSyncDisconnectCancelsComputation: a synchronous algorithm request
// whose client disconnects must cancel the underlying job (it has no
// other audience) and release the lease — r.Context() reaching the
// algorithm loop.
func TestSyncDisconnectCancelsComputation(t *testing.T) {
	ts, reg := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 10)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		b, _ := json.Marshal(neverConverges)
		req, err := http.NewRequestWithContext(ctx, "POST",
			ts.URL+"/graphs/g/algorithms/pagerank", bytes.NewReader(b))
		if err != nil {
			errc <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the sync request's job is running, then disconnect.
	deadline := time.Now().Add(10 * time.Second)
	var id string
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("sync job never started")
		}
		_, listing := doJSON(t, "GET", ts.URL+"/jobs", nil)
		for _, x := range listing["jobs"].([]any) {
			j := x.(map[string]any)
			if j["state"] == "running" {
				id = j["id"].(string)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request should have errored on disconnect")
	}
	pollJob(t, ts.URL, id, func(s string) bool { return s == "cancelled" })
	for deadline := time.Now().Add(5 * time.Second); ; {
		if info, ok := reg.Info("g"); ok && info.Refs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease not released after disconnect-cancellation")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDedupAndResultCache is the second acceptance scenario: identical
// concurrent submissions against one graph version produce exactly one
// computation, and a later identical request is a cache hit.
func TestDedupAndResultCache(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 9)

	// tol < 0 forces the full 400 sweeps, so the burst reliably overlaps.
	params := map[string]any{"tol": -1.0, "max_iter": 400}
	const burst = 4
	var wg sync.WaitGroup
	codes := make([]int, burst)
	bodies := make([]map[string]any, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(params)
			resp, err := http.Post(ts.URL+"/graphs/g/algorithms/pagerank", "application/json", bytes.NewReader(b))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&bodies[i])
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 200 {
			t.Fatalf("burst request %d: status %d", i, code)
		}
		if _, ok := bodies[i]["ranks"]; !ok {
			t.Fatalf("burst request %d: missing ranks: %v", i, bodies[i])
		}
	}

	s := jobsStats(t, ts.URL)
	computed := s["completed"].(float64)
	shared := s["dedup_hits"].(float64) + s["cache_hits"].(float64)
	if computed != 1 {
		t.Fatalf("completed = %v, want exactly 1 computation for %d identical requests", computed, burst)
	}
	if shared != burst-1 {
		t.Fatalf("dedup+cache hits = %v, want %d", shared, burst-1)
	}
	if runs := statsSection(t, ts.URL, "registry")["algorithm_runs"]; runs != 1.0 {
		t.Fatalf("registry algorithm_runs = %v, want 1", runs)
	}

	// After completion: one more identical request is a pure cache hit.
	code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank", params)
	if code != 200 {
		t.Fatalf("cached call: %d %v", code, body)
	}
	s = jobsStats(t, ts.URL)
	if s["completed"].(float64) != 1 {
		t.Fatalf("cached call recomputed: %v", s)
	}
	if s["cache_hits"].(float64) < 1 {
		t.Fatalf("cache_hits = %v, want >= 1", s["cache_hits"])
	}

	// Reloading the graph bumps its version: the cache must miss.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/graphs/g", nil); code != 200 {
		t.Fatal("delete failed")
	}
	loadSyntheticGraph(t, ts.URL, "g", "kron", 9)
	code, _ = doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank", params)
	if code != 200 {
		t.Fatalf("post-reload call: %d", code)
	}
	if s := jobsStats(t, ts.URL); s["completed"].(float64) != 2 {
		t.Fatalf("post-reload completed = %v, want 2 (new version recomputes)", s["completed"])
	}
}

// TestJobDeadline: a client-set timeout fails the job with a deadline
// error surfaced as 504 on the result endpoint.
func TestJobDeadline(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 9)

	code, job := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "pagerank", "params": neverConverges, "timeout_seconds": 0.05,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, job)
	}
	id := job["id"].(string)
	final := pollJob(t, ts.URL, id, func(s string) bool { return s == "failed" })
	if msg, _ := final["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("error = %q, want deadline", msg)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil); code != http.StatusGatewayTimeout {
		t.Fatalf("result: %d, want 504", code)
	}
}

// TestJobsStatsExposed: /stats carries the engine counters, and the
// graph's info its registry version.
func TestJobsStatsExposed(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 7)
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/cc", nil); code != 200 {
		t.Fatalf("cc failed")
	}

	code, stats := doJSON(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	js, ok := stats["jobs"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing jobs block: %v", stats)
	}
	for _, field := range []string{"queued", "running",
		"submitted", "completed", "failed", "cancelled", "dedup_hits", "cache_hits", "cached_results"} {
		if _, ok := js[field]; !ok {
			t.Errorf("jobs stats missing %q: %v", field, js)
		}
	}
	if js["submitted"].(float64) != 1 || js["completed"].(float64) != 1 {
		t.Fatalf("jobs counters: %v", js)
	}
	if _, gi := doJSON(t, "GET", ts.URL+"/graphs/g", nil); gi["version"] != 1.0 {
		t.Fatalf("graph version: %v", gi)
	}
}

// TestFailedSubmissionReleasesLease: submissions the engine rejects
// (queue full) must hand the lease back, and both submission paths answer
// the overflow with a 429 carrying Retry-After.
func TestFailedSubmissionReleasesLease(t *testing.T) {
	reg := registry.New(0)
	srv := New(reg, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 9)

	// Fill the worker and the queue with slow jobs.
	submit := func(maxIter int) (int, map[string]any) {
		return doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
			"algorithm": "pagerank",
			"params":    map[string]any{"tol": -1.0, "max_iter": maxIter},
		})
	}
	if code, _ := submit(1 << 29); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Wait until it occupies the worker so the queue slot frees.
	deadline := time.Now().Add(5 * time.Second)
	for jobsStats(t, ts.URL)["running"].(float64) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := submit(1 << 28); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	// Overflow through the async and the sync path, each with params of
	// its own so neither attaches to a job already in flight.
	for _, tc := range []struct{ path, body string }{
		{"/graphs/g/jobs", `{"algorithm":"pagerank","params":{"tol":-1,"max_iter":134217728}}`},
		{"/graphs/g/algorithms/pagerank", `{"tol":-1,"max_iter":67108864}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow %s: %d %v, want 429", tc.path, resp.StatusCode, body)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 120 {
			t.Fatalf("overflow %s: Retry-After = %q, want integer in [1,120]", tc.path, resp.Header.Get("Retry-After"))
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "queue full") {
			t.Fatalf("overflow %s: error %q does not mention the full queue", tc.path, msg)
		}
	}
	// The rejected submissions' leases are back: exactly two outstanding.
	if info, _ := reg.Info("g"); info.Refs != 2 {
		t.Fatalf("refs = %d, want 2 (rejected submissions released their leases)", info.Refs)
	}
}
