package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"lagraph/internal/jobs"
	"lagraph/internal/registry"
)

// newTestServer spins up the full handler stack over httptest.
func newTestServer(t *testing.T, maxBytes int64) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(maxBytes)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts, reg
}

// doJSON posts a JSON body and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// loadSynthetic loads one generated graph and fails the test on error.
func loadSyntheticGraph(t *testing.T, base, name, class string, scale int) {
	t.Helper()
	code, body := doJSON(t, "POST", base+"/graphs", map[string]any{
		"name": name, "class": class, "scale": scale, "edge_factor": 4, "seed": 42,
	})
	if code != http.StatusCreated {
		t.Fatalf("load %s: status %d, body %v", name, code, body)
	}
}

func TestGraphLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	if code, body := doJSON(t, "GET", ts.URL+"/healthz", nil); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}

	loadSyntheticGraph(t, ts.URL, "k", "kron", 6)

	code, body := doJSON(t, "GET", ts.URL+"/graphs", nil)
	if code != 200 {
		t.Fatalf("list: %d", code)
	}
	graphs := body["graphs"].([]any)
	if len(graphs) != 1 {
		t.Fatalf("list: %d graphs, want 1", len(graphs))
	}
	g0 := graphs[0].(map[string]any)
	if g0["name"] != "k" || g0["kind"] != "undirected" || g0["nodes"].(float64) != 64 {
		t.Fatalf("list entry: %v", g0)
	}

	if code, _ := doJSON(t, "GET", ts.URL+"/graphs/k", nil); code != 200 {
		t.Fatalf("get: %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/graphs/zzz", nil); code != 404 {
		t.Fatalf("get missing: %d, want 404", code)
	}

	// Duplicate names conflict.
	code, _ = doJSON(t, "POST", ts.URL+"/graphs", map[string]any{
		"name": "k", "class": "kron", "scale": 5,
	})
	if code != http.StatusConflict {
		t.Fatalf("duplicate load: %d, want 409", code)
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/graphs/k", nil); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/graphs/k", nil); code != 404 {
		t.Fatalf("double delete: %d, want 404", code)
	}
}

func TestAllAlgorithmEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "und", "kron", 7)    // undirected
	loadSyntheticGraph(t, ts.URL, "dir", "twitter", 7) // directed
	// The other three benchmark classes, weighted as the GAP runner's are.
	for _, class := range []string{"urand", "web", "road"} {
		code, body := doJSON(t, "POST", ts.URL+"/graphs", map[string]any{
			"name": class, "class": class, "scale": 6, "edge_factor": 4, "seed": 42, "weights": true,
		})
		if code != http.StatusCreated {
			t.Fatalf("load %s: status %d, body %v", class, code, body)
		}
	}

	for _, tc := range []struct {
		graph, alg string
		params     map[string]any
		wantField  string
	}{
		{"und", "bfs", map[string]any{"source": 1, "level": true}, "parent"},
		{"und", "pagerank", map[string]any{"max_iter": 20}, "ranks"},
		{"und", "cc", nil, "components"},
		{"und", "sssp", map[string]any{"source": 1, "delta": 2}, "distances"},
		{"und", "tc", nil, "triangles"},
		{"und", "bc", map[string]any{"sources": []int{0, 1, 2, 3}}, "centrality"},
		{"dir", "bfs", map[string]any{"source": 0}, "parent"},
		{"dir", "pagerank.gx", nil, "ranks"},
		{"dir", "cc", nil, "components"},
		{"dir", "bc", map[string]any{"sources": []int{0, 1}}, "centrality"},
		{"und", "lcc", map[string]any{"limit": 8}, "coefficients"},
		{"dir", "sssp", map[string]any{"source": 0, "delta": 64}, "distances"},
		{"urand", "bfs", map[string]any{"source": 0}, "parent"},
		{"urand", "pagerank", map[string]any{"max_iter": 20}, "ranks"},
		{"urand", "cc", nil, "components"},
		{"urand", "sssp", map[string]any{"source": 0, "delta": 64}, "distances"},
		{"urand", "tc", nil, "triangles"},
		{"urand", "bc", map[string]any{"sources": []int{0, 1, 2, 3}}, "centrality"},
		{"urand", "lcc", map[string]any{"limit": 8}, "coefficients"},
		{"web", "bfs", map[string]any{"source": 0}, "parent"},
		{"web", "pagerank", map[string]any{"max_iter": 20}, "ranks"},
		{"web", "cc", nil, "components"},
		{"web", "sssp", map[string]any{"source": 0, "delta": 64}, "distances"},
		{"web", "bc", map[string]any{"sources": []int{0, 1, 2, 3}}, "centrality"},
		{"road", "bfs", map[string]any{"source": 0}, "parent"},
		{"road", "pagerank", map[string]any{"max_iter": 20}, "ranks"},
		{"road", "cc", nil, "components"},
		{"road", "sssp", map[string]any{"source": 0, "delta": 64}, "distances"},
		{"road", "bc", map[string]any{"sources": []int{0, 1, 2, 3}}, "centrality"},
	} {
		url := fmt.Sprintf("%s/graphs/%s/algorithms/%s", ts.URL, tc.graph, tc.alg)
		code, body := doJSON(t, "POST", url, tc.params)
		if code != 200 {
			t.Errorf("%s on %s: status %d, body %v", tc.alg, tc.graph, code, body)
			continue
		}
		if _, ok := body[tc.wantField]; !ok {
			t.Errorf("%s on %s: missing %q in %v", tc.alg, tc.graph, tc.wantField, body)
		}
	}
}

func TestAlgorithmErrors(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "dir", "twitter", 6)

	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/nope", nil); code != 404 {
		t.Fatalf("unknown algorithm: %d, want 404", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/zzz/algorithms/bfs", nil); code != 404 {
		t.Fatalf("unknown graph: %d, want 404", code)
	}
	// TC needs an undirected graph.
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/tc", nil); code != 400 {
		t.Fatalf("tc on directed: %d, want 400", code)
	}
	// Out-of-range source.
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/bfs",
		map[string]any{"source": 1 << 30}); code != 400 {
		t.Fatalf("bad source: %d, want 400", code)
	}
	// Unknown spec fields are rejected.
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/bfs",
		map[string]any{"sauce": 3}); code != 400 {
		t.Fatalf("unknown param: %d, want 400", code)
	}
	// A negative edge weight: SSSP's bucket 3 lowers vertex 1 to 5, back
	// into bucket 0, so the distances would be wrong (dist(3) 20, not 15).
	mm := "%%MatrixMarket matrix coordinate real general\n4 4 4\n1 2 10\n2 4 10\n1 3 200\n3 2 -195\n"
	if code, body := postBody(t, ts.URL, "format=mm&name=neg&kind=directed", []byte(mm)); code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/graphs/neg/algorithms/sssp",
		map[string]any{"source": 0, "delta": 64}); code != 400 {
		t.Fatalf("sssp with a negative weight: %d %v, want 400", code, body)
	}
	// Missing Content-Type on POST /graphs.
	resp, err := http.Post(ts.URL+"/graphs", "application/x-octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("bodyless load: %d, want 415", resp.StatusCode)
	}
}

// TestConcurrentAlgorithmCalls is the acceptance scenario: one resident
// graph serving many parallel algorithm requests (run under -race in CI).
func TestConcurrentAlgorithmCalls(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 8)

	algs := []struct {
		alg    string
		params map[string]any
	}{
		{"bfs", map[string]any{"source": 1}},
		{"pagerank", map[string]any{"max_iter": 20}},
		{"cc", nil},
		{"sssp", map[string]any{"source": 2, "delta": 2}},
		{"tc", nil},
		{"bc", map[string]any{"sources": []int{0, 1, 2, 3}}},
	}
	const rounds = 3 // 18 parallel requests across all six algorithms
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(algs))
	for round := 0; round < rounds; round++ {
		for _, a := range algs {
			wg.Add(1)
			go func(alg string, params map[string]any) {
				defer wg.Done()
				var rd io.Reader
				if params != nil {
					b, _ := json.Marshal(params)
					rd = bytes.NewReader(b)
				}
				resp, err := http.Post(ts.URL+"/graphs/g/algorithms/"+alg, "application/json", rd)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d: %s", alg, resp.StatusCode, body)
				}
			}(a.alg, a.params)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent call failed: %v", err)
	}

	// All requests served, none rejected, zero algorithm errors.
	code, stats := doJSON(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if n := stats["algorithm_errors"].(float64); n != 0 {
		t.Fatalf("algorithm errors: %v", n)
	}
}

// TestCachedPropertyReuse verifies the cached-property contract through
// /stats: repeated PageRank calls on one graph must share a single
// transpose + degree materialization, later demands served from the cache.
func TestCachedPropertyReuse(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "twitter", 7)

	// Distinct parameters per call: each one is a fresh computation (the
	// jobs engine would dedup identical bodies into one run), so the
	// assertions below isolate property-cache reuse from result caching.
	const calls = 5
	for i := 0; i < calls; i++ {
		code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank",
			map[string]any{"max_iter": 10 + i})
		if code != 200 {
			t.Fatalf("pagerank call %d: %d %v", i, code, body)
		}
	}

	// PageRank needs AT + RowDegree: exactly two computations ever, no
	// matter how many calls, and every later demand is a cache hit.
	reg := statsSection(t, ts.URL, "registry")
	if got := reg["property_computes"]; got != 2.0 {
		t.Fatalf("property_computes = %v, want 2 (transpose + degrees computed once)", got)
	}
	if got := reg["property_requests"]; got != float64(2*calls) {
		t.Fatalf("property_requests = %v, want %d", got, 2*calls)
	}
	if got := reg["algorithm_runs"]; got != float64(calls) {
		t.Fatalf("algorithm_runs = %v, want %d", got, calls)
	}
	_, gi := doJSON(t, "GET", ts.URL+"/graphs/g", nil)
	cached := gi["cached_properties"].([]any)
	found := map[string]bool{}
	for _, c := range cached {
		found[c.(string)] = true
	}
	if !found["AT"] || !found["RowDegree"] {
		t.Fatalf("cached_properties = %v, want AT and RowDegree", cached)
	}
}

// TestEvictionOverHTTP drives the LRU through the API: a small budget
// evicts the least-recently-used graph when a new one is loaded, and the
// evicted graph's cached results go with it.
func TestEvictionOverHTTP(t *testing.T) {
	// Learn one graph's size from a probe registry, then budget for two.
	probe := registry.New(0)
	srvProbe := httptest.NewServer(New(probe, Options{}).Handler())
	loadSyntheticGraph(t, srvProbe.URL, "p", "twitter", 6)
	per := probe.List()[0].Bytes
	srvProbe.Close()

	ts2, _ := newTestServer(t, 2*per+per/2)
	loadSyntheticGraph(t, ts2.URL, "a", "twitter", 6)
	loadSyntheticGraph(t, ts2.URL, "b", "twitter", 6)
	if code, _ := doJSON(t, "POST", ts2.URL+"/graphs/b/algorithms/cc", nil); code != 200 {
		t.Fatalf("cc on b failed")
	}
	// Touch a so b is LRU.
	if code, _ := doJSON(t, "POST", ts2.URL+"/graphs/a/algorithms/cc", nil); code != 200 {
		t.Fatalf("cc on a failed")
	}
	loadSyntheticGraph(t, ts2.URL, "c", "twitter", 6)

	if code, _ := doJSON(t, "GET", ts2.URL+"/graphs/b", nil); code != 404 {
		t.Fatalf("b should have been evicted, got %d", code)
	}
	if code, _ := doJSON(t, "GET", ts2.URL+"/graphs/a", nil); code != 200 {
		t.Fatalf("a should be resident, got %d", code)
	}
	_, stats := doJSON(t, "GET", ts2.URL+"/stats", nil)
	if n := stats["jobs"].(map[string]any)["cached_results"]; n != 1.0 {
		t.Fatalf("cached_results = %v, want 1 (b's cc result dropped with b)", n)
	}
}

// TestSingleNodeUnchangedByClusterCode pins the single-node wire surface
// that the retired cluster mode once wrapped: no replication routes, no
// cluster stats key, and bare "j-%06d" job ids.
func TestSingleNodeUnchangedByClusterCode(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	resp, err := http.Get(ts.URL + "/replication/graphs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/replication/graphs: HTTP %d, want 404", resp.StatusCode)
	}
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)
	code, body := doJSON(t, "POST", ts.URL+"/graphs/g/edges", map[string]any{
		"ops": []map[string]any{{"op": "upsert", "src": 1, "dst": 2}},
	})
	if code != 200 {
		t.Fatalf("write: HTTP %d %v", code, body)
	}
	code, stats := doJSON(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if _, present := stats["cluster"]; present {
		t.Fatalf("/stats has a cluster section: %v", stats["cluster"])
	}
	code, sub := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "pagerank"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if id := sub["id"].(string); !regexp.MustCompile(`^j-\d{6}$`).MatchString(id) {
		t.Fatalf("job id %q, want j-%%06d", id)
	}
}

// TestRetiredTenancySurface pins what is left of the retired multi-tenant
// mode and its priority classes: a bearer token is ignored, a job
// "priority" is an unknown field, and neither /metrics nor /stats carries
// a tenant or per-class queue series while a job waits.
func TestRetiredTenancySurface(t *testing.T) {
	reg := registry.New(0)
	srv := New(reg, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)

	// An Authorization header and a ?priority= query are ignored.
	for _, path := range []string{"/graphs", "/graphs/g/algorithms/pagerank?priority=batch"} {
		method := "GET"
		if strings.Contains(path, "algorithms") {
			method = "POST"
		}
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer x")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s with a bearer token: HTTP %d, want 200", method, path, resp.StatusCode)
		}
	}

	code, body := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "pagerank", "priority": "batch"})
	if msg, _ := body["error"].(string); code != 400 || !strings.Contains(msg, `"priority"`) {
		t.Fatalf("job with priority: HTTP %d %v, want 400 naming priority", code, body)
	}

	// Occupy the one worker, then queue a second job behind it.
	code, body = doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "pagerank", "params": neverConverges})
	if code != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d %v", code, body)
	}
	pollJob(t, ts.URL, body["id"].(string), func(s string) bool { return s == "running" })
	code, queued := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "cc"})
	if code != http.StatusAccepted || queued["state"] != "queued" {
		t.Fatalf("queued submit: HTTP %d %v", code, queued)
	}
	if got, want := sortedKeys(queued), "algorithm cache_hit graph graph_version id state submitted_at wait_seconds"; got != want {
		t.Fatalf("queued job record keys %q, want %q", got, want)
	}

	js := jobsStats(t, ts.URL)
	if js["queued"].(float64) != 1 {
		t.Fatalf("jobs stats queued = %v, want 1", js["queued"])
	}
	if got, want := sortedKeys(js), "cache_hits cached_results cancelled completed dedup_hits failed queued running submitted"; got != want {
		t.Fatalf("jobs stats keys with a job queued %q, want %q", got, want)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(scrape), "\n") {
		family, ok := strings.CutPrefix(line, "# TYPE ")
		if ok && (strings.HasPrefix(family, "tenant_") || strings.HasPrefix(family, "jobs_queued_")) {
			t.Fatalf("/metrics carries a retired family: %s", line)
		}
	}
}

// sortedKeys renders a JSON object's key set, sorted and space-joined.
func sortedKeys(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
